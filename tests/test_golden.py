"""Every pinned output under tests/golden/ is read, and agrees with perfbench."""

import json

from oracles import GOLDEN, golden, golden_digests

REPO = GOLDEN.parent.parent


def test_every_golden_is_read():
    # a golden file or digest entry that no test module and no CI step
    # names pins nothing
    readers = [path.read_text(encoding="utf-8") for path in GOLDEN.parent.glob("*.py")]
    readers.append((REPO / ".github" / "workflows" / "tier1.yml").read_text("utf-8"))
    names = [path.name for path in GOLDEN.iterdir()] + list(golden_digests())
    assert [name for name in names if not any(name in text for text in readers)] == []


def test_the_benchmark_references_agree_with_the_goldens():
    # perfbench/reference.json gates the benchmark's runs with its own copy
    # of these outputs: a change to a suite's range or total must update
    # it together with the golden
    reference = json.loads((REPO / "perfbench" / "reference.json").read_text("utf-8"))
    for workload, name in [
        ("verify-default", "verify-default.json"),
        ("verify-n240", "verify-n240.json"),
    ]:
        suites = {
            report["suite"]: {"range": report["range"], "total": report["total"]}
            for report in json.loads(golden(name))
        }
        assert suites == reference[workload]["suites"], workload
    assert golden_digests()["export-n500.json"] == reference["tables-n500"]["sha256"]
