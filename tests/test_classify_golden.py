"""Every entry of the verify templates, classified, against a committed digest.

For each of the 21 templates of `default_templates(8)` and each seed 0-29
the instance is generated and every entry (k, l) of it is classified: 281
entries per seed, 8,430 in all.  `golden/classify-21x30.txt` holds one line
per template: its n, r and structure, the count of each case tag, the
count of warnings and the sha256 of the `repr` of each entry's tag, T<=
ends and warnings (or, where classify raises, the error's name and text).
A refactor of the thresholds must reproduce it bit for bit.  To record it
again after an intended change, run
`PYTHONPATH=src python tests/test_classify_golden.py` from the repository root.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

from edmp import CaseTag, EdmpError, EntryIndex, classify
from edmp.oracle import gen_unit_profile
from edmp.verify import default_templates

GOLDEN = Path(__file__).parent / "golden" / "classify-21x30.txt"
SEEDS = range(30)


def template_line(template) -> str:
    spec = template.spec
    counts = dict.fromkeys([tag.value for tag in CaseTag] + ["raised"], 0)
    warnings = 0
    digest = hashlib.sha256()
    for seed in SEEDS:
        prof = gen_unit_profile(replace(spec, seed=seed))
        for k in range(1, spec.n + 1):
            for l in range(k + 1, spec.n + 1):
                try:
                    rep = classify(prof, EntryIndex(k, l))
                except EdmpError as exc:
                    counts["raised"] += 1
                    item = (k, l, type(exc).__name__, str(exc))
                else:
                    counts[rep.case_tag.value] += 1
                    warnings += len(rep.warnings)
                    item = (k, l, rep.case_tag.value, tuple(map(float, rep.t_leq)),
                            tuple(rep.warnings))
                digest.update(repr(item).encode() + b"\n")
    tags = " ".join(f"{name}={count}" for name, count in counts.items())
    return (f"n={spec.n} r={spec.r} structure={spec.structure.value} {tags} "
            f"warnings={warnings} sha256={digest.hexdigest()}")


def golden_lines() -> list[str]:
    return [template_line(template) for template in default_templates(8)]


def test_every_template_entry_matches_golden():
    assert golden_lines() == GOLDEN.read_text().splitlines()


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(golden_lines()) + "\n")
