"""Acceptance gate: every structural criterion at its pinned tolerance.

Runs the full verification registry over the canonical fixtures and
asserts each check, printing one line per criterion.  The twelve
criterion groups map onto the suites as follows:

 1 flow exactness ........... flows
 2 translation operators .... translation
 3 homomorphism (6 pairs) ... composition
 4 associativity ............ associativity
 5 pushforward invariance ... pushforward
 6 smoothing ideal .......... smoothing
 7 transpose ................ transpose
 8 transversality/adjoint ... adjoint
 9 mu-independence .......... mu-independence
10 support propagation ...... support
11 leaf locality/restriction  leaf
12 negative control ......... negative
"""

import pytest

from foliops.verify import SUITES, run_suites

_EXPECTED_MIN_CHECKS = {
    "flows": 3,
    "translation": 1,
    "composition": 6,
    "associativity": 1,
    "pushforward": 2,
    "smoothing": 4,
    "transpose": 1,
    "adjoint": 2,
    "mu-independence": 1,
    "support": 3,
    "leaf": 3,
    "negative": 2,
}


@pytest.fixture(scope="module")
def full_report():
    return run_suites("all")


@pytest.mark.parametrize("suite", list(SUITES))
def test_criterion(full_report, suite):
    entries = [r for s, r in full_report if s == suite]
    assert len(entries) >= _EXPECTED_MIN_CHECKS[suite]
    failures = []
    for r in entries:
        line = (f"[{r.status.upper():4s}] {suite}: {r.check} "
                f"(measured {r.measured:.3e}, tolerance {r.tolerance:.2e})")
        print(line)
        if r.status != "pass":
            failures.append(line)
    assert not failures, "\n".join(failures)
