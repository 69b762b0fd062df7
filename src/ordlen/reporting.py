"""Check results, the options and the sweep that produce them, and their text/JSON renderings."""

from __future__ import annotations

import json
from typing import Any, Callable, Iterable, NamedTuple, Sequence

WITNESSES_KEPT = 5
# the options of ``ordlen check`` and their defaults
OPTIONS = {"max_vars": 3, "max_deg": 3, "seed": 0, "sample": 500, "truncation": 8}

# A law: (record name, what its cases are and satisfy, verdict on one case).
# The verdict is true or false, or None for a case the law says nothing about.
Law = tuple[str, str, Callable[[Any], "bool | None"]]


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""
    evidence: dict = {}
    cases: int | None = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = f"CHECK {self.name} {status}"
        if self.detail:
            out += f" {self.detail}"
        return out

    def to_json(self) -> dict:
        out = {"name": self.name, "passed": self.passed, "detail": self.detail}
        if self.cases is not None:
            out["cases"] = self.cases
        if self.evidence:
            out["evidence"] = self.evidence
        return out


def sweep(
    cases: Iterable, laws: Sequence[Law], witness: Callable[[Any], object] = str
) -> list[CheckResult]:
    """One record per law, from a single pass over the cases.

    A record passes when no case fails its law.  Its detail reads
    "<cases> <what>", counting the cases the law covered, and on failure
    adds the failure count and the first witness; ``witness`` renders
    the first few failing cases into the evidence.  Nothing is kept of
    a passing case, so ``cases`` may be a generator of any length.
    """
    verdicts = [holds for _, _, holds in laws]
    skipped = [0] * len(laws)
    failures = [0] * len(laws)
    witnesses: list[list[str]] = [[] for _ in laws]
    total = 0
    for total, case in enumerate(cases, 1):
        for i, holds in enumerate(verdicts):
            verdict = holds(case)
            if not verdict:
                if verdict is None:
                    skipped[i] += 1
                    continue
                failures[i] += 1
                if failures[i] <= WITNESSES_KEPT:
                    witnesses[i].append(str(witness(case)))
    results = []
    for (name, what, _), skip, failed, shown in zip(laws, skipped, failures, witnesses):
        count = total - skip
        detail = f"{count} {what}"
        if failed:
            detail += f"; {failed} failures, first: {shown[0]}"
        evidence = {"witnesses": shown} if failed else {}
        results.append(CheckResult(name, not failed, detail, evidence, count))
    return results


def render_results(results: list[CheckResult], fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps(
            {
                "checks": [r.to_json() for r in results],
                "passed": sum(r.passed for r in results),
                "failed": sum(not r.passed for r in results),
            },
            indent=2,
            default=str,
        )
    lines = [r.line() for r in results]
    bad = sum(not r.passed for r in results)
    lines.append(f"{len(results) - bad}/{len(results)} checks passed")
    return "\n".join(lines)
