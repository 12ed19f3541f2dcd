"""Fingerprints of job outputs and their comparison with the seed reference.

A job's outcome is its exit code (or the exception it raised), its printed
summary and the files it wrote.  Text is split into a skeleton, the text with
every number replaced by ``#``, which must match exactly, and the numbers,
which must match within REL_TOL (absolute ABS_TOL near zero).  Long outputs
keep aggregates and evenly spaced samples of their numbers instead of all of
them.  The wall-clock ``runtime_ms`` column of sweep CSVs is dropped.
"""

from __future__ import annotations

import hashlib
import math
import re

REL_TOL = 1e-9
ABS_TOL = 1e-12
KEEP_ALL = 64   # outputs with at most this many numbers keep every one
SAMPLES = 64    # evenly spaced samples kept from longer outputs
VOLATILE_COLUMNS = ("runtime_ms",)

_NUMBER = re.compile(
    r"(?<![A-Za-z_])[-+]?(?:inf|nan)(?![A-Za-z_])"
    r"|[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
)


def _drop_volatile(text: str) -> str:
    lines = text.splitlines()
    if not lines:
        return text
    header = lines[0].split(",")
    drop = [i for i, name in enumerate(header) if name in VOLATILE_COLUMNS]
    if not drop:
        return text
    kept = []
    for line in lines:
        cells = line.split(",")
        kept.append(",".join(c for i, c in enumerate(cells) if i not in drop))
    return "\n".join(kept) + "\n"


def fingerprint(text: str) -> dict:
    """Skeleton hash plus the numbers of ``text`` (or aggregates of them)."""
    text = _drop_volatile(text)
    skeleton = _NUMBER.sub("#", text)
    nums = [float(t) for t in _NUMBER.findall(text)]
    fp = {"skeleton": hashlib.sha256(skeleton.encode()).hexdigest()[:16], "count": len(nums)}
    if len(nums) <= KEEP_ALL:
        fp["values"] = nums
        return fp
    finite = [v for v in nums if math.isfinite(v)]
    n = len(nums)
    fp.update(
        zeros=sum(1 for v in nums if v == 0.0),
        nonfinite=n - len(finite),
        sum=math.fsum(finite),
        sum_sq=math.fsum(v * v for v in finite),
        moment=math.fsum(k * v for k, v in enumerate(nums) if math.isfinite(v)) / n,
        max=max(finite, default=0.0),
        min=min(finite, default=0.0),
        samples=[nums[(k * (n - 1)) // (SAMPLES - 1)] for k in range(SAMPLES)],
    )
    return fp


def _close(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        a, b = float(a), float(b)
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return a == b


def differences(ref, got, path="") -> list[str]:
    """Human-readable list of where ``got`` departs from ``ref``."""
    if isinstance(ref, dict) and isinstance(got, dict):
        out = []
        for key in sorted(set(ref) | set(got)):
            if key not in ref or key not in got:
                out.append(f"{path}/{key}: present in only one side")
            else:
                out += differences(ref[key], got[key], f"{path}/{key}")
        return out
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(got)} != reference {len(ref)}"]
        out = []
        for k, (r, g) in enumerate(zip(ref, got)):
            out += differences(r, g, f"{path}[{k}]")
        return out[:5]
    if not _close(ref, got):
        return [f"{path}: {got!r} != reference {ref!r}"]
    return []
