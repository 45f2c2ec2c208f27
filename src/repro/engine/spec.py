"""Declarative run specifications.

A :class:`RunSpec` is the single currency between the experiment,
runner, store and executor layers: an immutable, hashable description
of one measurement -- *what* to run (workload + iteration scale),
*where* (machine model + machine scale), and *how* (mode plus the
mode's knobs).  Two equal specs denote the same deterministic run, so
a spec's digest can key both in-process memoization and the on-disk
result store.

Custom UMI configurations travel as a sorted tuple of ``(field,
value)`` overrides against :class:`repro.core.UMIConfig`'s defaults,
which keeps the spec hashable, JSON-serializable, and sufficient to
reconstruct the exact config in a worker process.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.core import UMIConfig

#: Modes a spec may request (the timed modes of the runner registry).
SPEC_MODES = ("native", "dynamo", "umi")

_UMI_FIELDS = {f.name for f in dataclasses.fields(UMIConfig)}

_UMI_DEFAULTS = {f.name: f.default for f in dataclasses.fields(UMIConfig)
                 if f.default is not dataclasses.MISSING}

#: Spec-level knobs that shadow UMIConfig fields; passing them through
#: ``umi_overrides`` too would create two spellings of the same run.
_SHADOWED_OVERRIDES = ("use_sampling", "enable_sw_prefetch")


def _freeze_overrides(overrides) -> Tuple[Tuple[str, Any], ...]:
    """Canonicalize a dict/tuple of UMIConfig overrides."""
    if not overrides:
        return ()
    items = dict(overrides).items()
    frozen = []
    for name, value in sorted(items):
        if name not in _UMI_FIELDS:
            raise ValueError(f"unknown UMIConfig field {name!r}")
        if name in _SHADOWED_OVERRIDES:
            raise ValueError(
                f"set {name!r} via the spec's sampling/sw_prefetch "
                f"fields, not umi_overrides")
        if not isinstance(value, (bool, int, float, str, type(None))):
            raise ValueError(
                f"override {name!r} must be a scalar to stay hashable "
                f"and serializable, got {type(value).__name__}")
        if name in _UMI_DEFAULTS and value == _UMI_DEFAULTS[name] \
                and type(value) is type(_UMI_DEFAULTS[name]):
            # Canonical form: explicitly restating a default is the
            # same run as omitting it, so it must hash the same.
            continue
        frozen.append((name, value))
    return tuple(frozen)


def _freeze_consumers(names) -> Tuple[str, ...]:
    """Canonicalize (sort + dedup) and validate consumer names."""
    if not names:
        return ()
    frozen = tuple(sorted(set(names)))
    from repro.stream import spec_safe_consumer_names

    allowed = spec_safe_consumer_names()
    for name in frozen:
        if name not in allowed:
            raise ValueError(
                f"consumer {name!r} is not spec-safe; allowed: {allowed}")
    return frozen


@dataclass(frozen=True)
class RunSpec:
    """One immutable, hashable unit of measurement work."""

    workload: str
    scale: float
    machine: str
    machine_scale: int
    mode: str
    sampling: bool = True
    sw_prefetch: bool = False
    hw_prefetch: bool = False
    with_cachegrind: bool = False
    counter_sample_size: Optional[int] = None
    #: Spec-safe stream consumer names (``repro.stream`` registry);
    #: their summaries land in the outcome's ``derived`` mapping.
    consumers: Tuple[str, ...] = field(default=())
    #: Non-default UMIConfig fields, as a sorted ``(name, value)`` tuple.
    umi_overrides: Tuple[Tuple[str, Any], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.mode not in SPEC_MODES:
            raise ValueError(
                f"unknown mode {self.mode!r}; known: {SPEC_MODES}")
        object.__setattr__(
            self, "umi_overrides", _freeze_overrides(self.umi_overrides))
        object.__setattr__(
            self, "consumers", _freeze_consumers(self.consumers))
        if self.mode != "native" and self.counter_sample_size is not None:
            raise ValueError(
                "counter_sample_size only applies to native runs")
        if self.mode != "umi" and self.umi_overrides:
            raise ValueError("umi_overrides only apply to umi runs")
        # A knob the mode ignores would give one run two digests.
        if self.mode == "dynamo" and self.with_cachegrind:
            raise ValueError(
                "with_cachegrind only applies to native and umi runs")
        if self.mode != "umi" and (not self.sampling or self.sw_prefetch):
            raise ValueError(
                "sampling/sw_prefetch only apply to umi runs")

    # -- construction helpers ----------------------------------------------

    @classmethod
    def native(cls, workload: str, scale: float, machine: str,
               machine_scale: int, **kwargs) -> "RunSpec":
        return cls(workload=workload, scale=scale, machine=machine,
                   machine_scale=machine_scale, mode="native", **kwargs)

    @classmethod
    def dynamo(cls, workload: str, scale: float, machine: str,
               machine_scale: int, **kwargs) -> "RunSpec":
        return cls(workload=workload, scale=scale, machine=machine,
                   machine_scale=machine_scale, mode="dynamo", **kwargs)

    @classmethod
    def umi(cls, workload: str, scale: float, machine: str,
            machine_scale: int, **kwargs) -> "RunSpec":
        return cls(workload=workload, scale=scale, machine=machine,
                   machine_scale=machine_scale, mode="umi", **kwargs)

    # -- derived views -------------------------------------------------------

    def umi_config(self) -> UMIConfig:
        """The exact UMIConfig this spec's run executes under."""
        return UMIConfig(
            use_sampling=self.sampling,
            enable_sw_prefetch=self.sw_prefetch,
            **dict(self.umi_overrides),
        )

    @property
    def config_digest(self) -> str:
        """Short digest of the UMI-config/cost-model surface of the spec.

        Only non-default configuration contributes; specs running the
        stock configuration share the empty digest.
        """
        if not self.umi_overrides:
            return ""
        blob = json.dumps(self.umi_overrides, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe representation (embedded in stored payloads)."""
        # Not dataclasses.asdict: every field is a scalar or a tuple of
        # scalars, so its deep copy would only cost time on the
        # digest/lease hot path.
        payload = {name: getattr(self, name) for name in _FIELD_NAMES}
        payload["consumers"] = list(self.consumers)
        payload["umi_overrides"] = [list(kv) for kv in self.umi_overrides]
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunSpec":
        payload = dict(payload)
        payload["consumers"] = tuple(payload.get("consumers", ()))
        payload["umi_overrides"] = tuple(
            (k, v) for k, v in payload.get("umi_overrides", ()))
        return cls(**payload)

    def digest(self) -> str:
        """Stable content hash; the result store's file key.

        Computed once per spec: the store, the lease and the lease
        journal all key by it on every request.
        """
        cached = self.__dict__.get("_digest")
        if cached is None:
            blob = json.dumps(self.to_dict(), sort_keys=True)
            cached = hashlib.sha256(blob.encode()).hexdigest()
            object.__setattr__(self, "_digest", cached)
        return cached

    def describe(self) -> str:
        """Compact human-readable label (logs, progress lines)."""
        bits = [self.mode, self.workload, self.machine]
        if self.mode == "umi":
            bits.append("sampling" if self.sampling else "no-sampling")
            if self.sw_prefetch:
                bits.append("swpf")
        if self.hw_prefetch:
            bits.append("hwpf")
        if self.with_cachegrind:
            bits.append("cg")
        if self.counter_sample_size is not None:
            bits.append(f"ctr={self.counter_sample_size}")
        bits.extend(self.consumers)
        if self.config_digest:
            bits.append(f"cfg={self.config_digest}")
        return ":".join(bits)


#: RunSpec's field names in declaration order (``to_dict``'s key order).
_FIELD_NAMES = tuple(f.name for f in dataclasses.fields(RunSpec))
