"""Pure helpers of the benchmark: percentiles, names, manifests.

Nothing here imports ``repro``, so the unit tests of the benchmark's
own logic run without the program.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from typing import Any, Dict, Optional, Sequence, Tuple

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def validate_metric_name(name: str) -> str:
    """Return ``name`` if it is a legal metric name, else raise."""
    if not isinstance(name, str) or METRIC_NAME.fullmatch(name) is None \
            or not name[0].isalnum() or len(name) > 64:
        raise ValueError(f"illegal metric name {name!r}: want "
                         f"[A-Za-z0-9_.-]+, starting with a letter or "
                         f"digit, at most 64 characters")
    return name


def tail_percentile(samples: Sequence[float],
                    beyond: int = TAIL_BEYOND) -> Tuple[int, float, int]:
    """The highest whole percentile leaving ``beyond`` samples above it.

    Returns ``(percentile, value, samples_beyond)`` using the
    nearest-rank definition (the value of rank ``ceil(p/100 * n)``).
    457 samples give p97, 624 give p98, 40 give p75.
    """
    n = len(samples)
    if n <= beyond:
        raise ValueError(f"{n} samples cannot leave {beyond} beyond any "
                         f"percentile")
    ordered = sorted(samples)
    pct = math.floor(100 * (n - beyond) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return pct, ordered[rank - 1], n - rank


# -- payload manifests --------------------------------------------------------

def canonical(value: Any) -> bytes:
    return json.dumps(value, sort_keys=True,
                      separators=(",", ":")).encode()


def sha256(value: Any) -> str:
    return hashlib.sha256(canonical(value)).hexdigest()


#: Hex digits kept per field hash (enough to name a drifting field).
FIELD_HASH_LEN = 10


def field_hashes(payload: Dict[str, Any]) -> Dict[str, str]:
    """Short hashes of a payload's top-level fields, in sorted order,
    so "the first field that drifted" is well defined."""
    return {key: sha256(payload[key])[:FIELD_HASH_LEN]
            for key in sorted(payload)}


def manifest_entry(payload: Dict[str, Any]) -> Dict[str, Any]:
    return {"sha256": sha256(payload), "fields": field_hashes(payload)}


def first_drift(expected: Optional[Dict[str, Any]],
                payload: Dict[str, Any]) -> Optional[str]:
    """``None`` if ``payload`` matches its manifest entry, else the
    first field (in sorted order) that differs."""
    if expected is None:
        return "<not in manifest>"
    if sha256(payload) == expected["sha256"]:
        return None
    got = field_hashes(payload)
    want = expected["fields"]
    for field in sorted(set(got) | set(want)):
        if got.get(field) != want.get(field):
            return field
    return "<payload>"   # same fields, different bytes (hash truncation)


def check_requests(requests: Sequence[Sequence[Tuple[str, str, Any]]],
                   manifest: Optional[Dict[str, Any]]
                   ) -> Tuple[int, Optional[str]]:
    """Count failed requests and name the first drift.

    Each request is a list of ``(digest, label, payload_or_None)``; a
    ``None`` payload is a run that failed.  With a manifest, a payload
    whose hash differs from its entry fails its request too.  Returns
    ``(failed_requests, first_problem)``.
    """
    failed = 0
    first: Optional[str] = None
    entries = manifest["payloads"] if manifest is not None else None
    for request in requests:
        problem = None
        for digest, label, payload in request:
            if payload is None:
                problem = f"{label} ({digest[:12]}) failed to run"
            elif entries is not None:
                field = first_drift(entries.get(digest), payload)
                if field is not None:
                    problem = (f"{label} ({digest[:12]}) drifted from "
                               f"the manifest in field {field!r}")
            if problem is not None:
                break
        if problem is not None:
            failed += 1
            if first is None:
                first = problem
    return failed, first


def dump_manifest(manifest: Dict[str, Any]) -> str:
    """Manifest JSON with one payload entry per line (diffs name specs)."""
    head = {k: v for k, v in sorted(manifest.items()) if k != "payloads"}
    lines = [f"  {json.dumps(k)}: {json.dumps(v)}," for k, v in head.items()]
    entries = [f"    {json.dumps(d)}: "
               f"{json.dumps(e, sort_keys=True, separators=(',', ':'))}"
               for d, e in sorted(manifest["payloads"].items())]
    return ("{\n" + "\n".join(lines) + '\n  "payloads": {\n'
            + ",\n".join(entries) + "\n  }\n}\n")


def table_text(output: str) -> str:
    """Rendered tables with status lines (``[...]``) and blanks removed."""
    return "\n".join(line for line in output.splitlines()
                     if line.strip() and not line.startswith("["))


def error_rate(attempted: int, failed: int) -> float:
    return failed / attempted if attempted else 1.0
