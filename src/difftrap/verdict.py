"""The three-valued verdict lattice shared by all decision procedures.

TRUE means certified; FALSE always carries a witness that re-verifies by
exact arithmetic; INCONCLUSIVE records the bound up to which the search was
exhaustive.  Certificates are plain dicts of strings and numbers so reports
serialize deterministically.
"""

from dataclasses import dataclass, field

TRUE = "TRUE"
FALSE = "FALSE"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass
class Verdict:
    status: str
    bound: int | None = None
    certificate: dict = field(default_factory=dict)

    @classmethod
    def true(cls, **certificate):
        return cls(TRUE, certificate=certificate)

    @classmethod
    def false(cls, **certificate):
        return cls(FALSE, certificate=certificate)

    @classmethod
    def inconclusive(cls, bound=None, **certificate):
        return cls(INCONCLUSIVE, bound=bound, certificate=certificate)

    @property
    def is_true(self):
        return self.status == TRUE

    @property
    def is_false(self):
        return self.status == FALSE

    @property
    def is_inconclusive(self):
        return self.status == INCONCLUSIVE

    def describe(self):
        if self.is_inconclusive and self.bound is not None:
            return f"INCONCLUSIVE_UP_TO({self.bound})"
        return self.status

    def to_jsonable(self):
        out = {"status": self.status}
        if self.bound is not None:
            out["bound"] = self.bound
        out["certificate"] = _jsonable(self.certificate)
        return out


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Verdict):
        return value.to_jsonable()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
