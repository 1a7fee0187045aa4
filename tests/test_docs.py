"""Documentation consistency checks.

Keep README / DESIGN / EXPERIMENTS / docs in sync with the code: every
figure driver documented, every benchmark listed, every example file
referenced actually existing, and the workload table matching the suite.
"""

import os
import re

import pytest

REPO = os.path.join(os.path.dirname(__file__), "..")


def read(relpath):
    with open(os.path.join(REPO, relpath)) as fh:
        return fh.read()


class TestTopLevelFiles:
    @pytest.mark.parametrize(
        "name", ["README.md", "DESIGN.md", "EXPERIMENTS.md", "pyproject.toml"]
    )
    def test_exists(self, name):
        assert os.path.exists(os.path.join(REPO, name))

    def test_readme_cites_paper(self):
        text = read("README.md")
        assert "Accelerated Reply Injection" in text
        assert "IPPS 2020" in text

    def test_design_confirms_paper_identity(self):
        assert "matches the stated title" in read("DESIGN.md")


class TestFigureCoverage:
    def test_every_paper_figure_has_driver_and_bench(self):
        from repro.experiments.figures import ALL_FIGURES

        paper_figures = [
            "fig3", "fig4", "fig5", "fig6", "fig9", "fig10", "fig11",
            "fig12", "fig13", "fig14", "fig15", "fig16",
            "sec3_util", "sec61_area", "sec75_scalability",
        ]
        for name in paper_figures:
            assert name in ALL_FIGURES, f"driver missing for {name}"

        benches = os.listdir(os.path.join(REPO, "benchmarks"))
        for num in (3, 4, 5, 6, 9, 10, 11, 12, 13, 14, 15, 16):
            assert f"bench_fig{num:02d}.py" in benches

    def test_experiments_md_covers_every_paper_figure(self):
        text = read("EXPERIMENTS.md")
        for token in ["Fig. 3", "Fig. 4", "Fig. 5", "Fig. 6", "Fig. 9",
                      "Fig. 10", "Fig. 11", "Fig. 12", "Fig. 13", "Fig. 14",
                      "Fig. 15", "Fig. 16", "Sec. 6.1", "Sec. 7.5"]:
            assert token in text, f"EXPERIMENTS.md missing {token}"

    def test_design_md_lists_every_driver(self):
        from repro.experiments.figures import ALL_FIGURES

        text = read("DESIGN.md")
        # Paper figures are indexed by their bench target.
        for num in (3, 4, 5, 6, 9, 10, 11, 12, 13, 14, 15, 16):
            assert f"bench_fig{num:02d}" in text


class TestExamplesReferenced:
    def test_all_examples_exist(self):
        text = read("README.md")
        for match in re.findall(r"examples/(\w+\.py)", text):
            assert os.path.exists(
                os.path.join(REPO, "examples", match)
            ), f"README references missing example {match}"

    def test_at_least_three_examples(self):
        examples = [
            f for f in os.listdir(os.path.join(REPO, "examples"))
            if f.endswith(".py")
        ]
        assert len(examples) >= 3
        assert "quickstart.py" in examples


class TestWorkloadDocSync:
    def test_workload_table_matches_suite(self):
        from repro.workloads.suite import SUITE

        text = read("docs/workloads.md")
        for name, prof in SUITE.items():
            # Markdown table escaping: benchmark names appear verbatim.
            assert f"| {name} |" in text, f"docs/workloads.md missing {name}"
            assert str(prof.working_set_lines) in text

    def test_doc_class_counts(self):
        text = read("docs/workloads.md")
        assert text.count("| high |") == 9
        assert text.count("| medium |") == 11
        assert text.count("| low |") == 10


class TestSchemeDocSync:
    def test_main_schemes_in_readme_or_design(self):
        combined = read("README.md") + read("DESIGN.md")
        for sch in ["xy-baseline", "ada-ari", "ada-multiport", "da2mesh"]:
            assert sch.replace("-", "") in combined.replace("-", "").lower()


class TestStaticcheckDocSync:
    RETIRED = (
        "kernel-skip-unsound",
        "kernel-wake-unscheduled",
        "kernel-state-untracked",
        "# kernel:",
    )

    def test_every_rule_documented(self):
        from repro.staticcheck import RULES

        text = read("docs/staticcheck.md")
        missing = [rid for rid in RULES if f"`{rid}`" not in text]
        assert not missing, f"docs/staticcheck.md lacks {missing}"

    def test_retired_kernel_rules_absent(self):
        hits = []
        for top in ("src", "docs"):
            for root, _dirs, files in os.walk(os.path.join(REPO, top)):
                for name in files:
                    if not name.endswith((".py", ".md")):
                        continue
                    path = os.path.join(root, name)
                    with open(path, encoding="utf-8") as fh:
                        text = fh.read()
                    hits += [
                        (os.path.relpath(path, REPO), token)
                        for token in self.RETIRED
                        if token in text
                    ]
        assert not hits
