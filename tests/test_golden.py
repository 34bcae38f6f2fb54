"""Golden reports: the certified JSON report of each pinned scenario is fixed
to the byte.

The reports are the behaviour contract of the workbench, so a change in the
engine (say, a different elimination strategy) must leave these digests
alone unless it says why the reports change.
"""

import hashlib

import pytest

from difftrap import parse, run
from difftrap.forking import BUILTIN_NAMES, builtin_scenario

GOLDEN = {
    "example-d1-free": "fbdedda443f4f34a9fcc404f3f274ac9f4f522b78e4bd776c6e57d0b8b36c028",
    "example-d1-constant": "b8fcdb895ef0d568d4e9718cc65d42df0e982ddffd3f70404f5636c3a7a7724e",
    "srour-counterexample": "65f549f81163fe0ae70fc08073a09228db5c0e6c789848ac217a964a1fc651b8",
    "degenerate-base": "aac68ba9eac7275a6bd607151115cd4e3dfc2fc66eba2b35bc07f651f12d691c",
    "bernoulli-pair(2,1,1)": "74681f6ead169ec1e50f65cd5c92ab6c4cb90867055aca74a8c36e913237fa2e",
    "bernoulli-pair(2,1,2)": "89fca4f6029eb0dd8611144c09c44ba3162cc7a8ef7cc254c3e212b50f31d269",
    "bernoulli-pair(3,1,2)": "dc9feccd5065f912c0fba52cf447fdce69a528eed4caab7308b85591c0c8250e",
    "bernoulli-pair(5,1,1)": "4c4459a0d472e9e6a95197cb4eb108587503e90b59615eecc04431d52e3434ec",
    "bernoulli-pair(7,1,1)": "0feef0fdeb795311599c9d8594493575c0f5f261ad1a255468e08fdf9cbde45a",
}


def test_every_builtin_is_pinned():
    assert set(BUILTIN_NAMES) <= set(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_certified_report_digest(name):
    report = run(parse(builtin_scenario(name), name=name), with_certificates=True)
    digest = hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()
    assert digest == GOLDEN[name]
