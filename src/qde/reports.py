"""Structured outcomes of identity checks.

One report covers one identity at one parameter point.  The status is
either the string "exact" (exact equality), an object
{"padic_agreement": v, "precision": K} when the two sides cannot be
told apart at working precision v >= (their joint absolute precision),
or {"fail": witness} with enough of both sides to reproduce the
mismatch.  A report passes when its status is "exact" or an agreement
of at least one digit.  Timing lives in elapsed_ms and is excluded from any
determinism comparison.
"""

import json
from dataclasses import dataclass

# one encoder for every line: json.dumps with these options builds a new one per call
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class IdentityReport:
    identity: str
    variant: str
    params: dict
    status: object
    elapsed_ms: int

    @property
    def passed(self) -> bool:
        """Exact, or p-adic agreement to at least one digit.

        Agreement below one digit says nothing about the two sides, so
        it does not pass even though its status has the agreement shape.
        """
        if self.status == "exact":
            return True
        return isinstance(self.status, dict) and self.status.get("padic_agreement", 0) >= 1

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "variant": self.variant,
            "params": self.params,
            "status": self.status,
            "elapsed_ms": self.elapsed_ms,
        }

    def comparison_payload(self) -> dict:
        """The deterministic part of the report."""
        out = self.to_json()
        del out["elapsed_ms"]
        return out

    def json_line(self) -> str:
        return _ENCODER.encode(self.to_json())
