"""Structured pass/fail reports for law verification suites."""

from __future__ import annotations

from typing import NamedTuple

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"


class LawResult(NamedTuple):
    law: str
    status: str
    checked: int = 0
    counterexample: dict | None = None
    detail: str = ""


class LawReport:
    def __init__(self, suite: str, bounds: dict | None = None, seed: int | None = None,
                 results: list | None = None, elapsed: float = 0.0):
        self.suite, self.seed, self.elapsed = suite, seed, elapsed
        self.bounds = {} if bounds is None else bounds
        self.results = [] if results is None else results

    def extend(self, results):
        self.results.extend(results)

    def sort(self):
        self.results.sort(key=lambda r: r.law)

    @property
    def failed(self) -> list:
        return [r for r in self.results if r.status == FAIL]

    @property
    def skipped(self) -> list:
        return [r for r in self.results if r.status == SKIPPED]

    @property
    def ok(self) -> bool:
        return not self.failed

    def to_dict(self, with_timing: bool = True) -> dict:
        d = {
            "suite": self.suite,
            "bounds": self.bounds,
            "seed": self.seed,
            "results": [r._asdict() for r in self.results],
        }
        if with_timing:
            d["elapsed"] = self.elapsed
        return d

    def render(self, with_timing: bool = True) -> str:
        import json

        width = max((len(r.law) for r in self.results), default=10) + 2
        lines = [f"suite: {self.suite}"]
        if self.bounds:
            lines.append("bounds: " + ", ".join(f"{k}={v}" for k, v in sorted(self.bounds.items())))
        for r in self.results:
            line = f"  {r.law:<{width}} {r.status:<8} checked={r.checked}"
            lines.append(line)
            if r.status == FAIL and r.counterexample is not None:
                lines.append(f"    counterexample: {json.dumps(r.counterexample, sort_keys=True)}")
            if r.detail:
                lines.append(f"    {r.detail}")
        summary = f"{len(self.results)} laws, {len(self.failed)} failed, {len(self.skipped)} skipped"
        if with_timing:
            summary += f" [{self.elapsed:.2f}s]"
        lines.append(summary)
        return "\n".join(lines) + "\n"
