"""Dinero-style trace-driven cache simulation.

The paper's related work names the classic offline trio: SimpleScalar,
Cachegrind, and Dinero IV.  This module provides the Dinero piece: a
standalone simulator over *recorded traces* (the din text format that
:mod:`repro.vm.tracing` exports), decoupled from program execution
entirely -- the workflow offline tuning used before UMI made online
introspection practical.

Console entry point ``python -m repro.fullsim.dinero``::

    python -m repro.fullsim.dinero trace.din --size 32768 --assoc 8
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import IO, Iterable, Optional, Tuple, Union

from repro.memory.cache import Cache, CacheConfig
from repro.memory.policies import make_policy
from repro.vm.tracing import replay_din


@dataclass
class DineroResult:
    """Aggregate statistics of one trace simulation."""

    config: CacheConfig
    policy: str
    reads: int
    read_misses: int
    writes: int
    write_misses: int

    @property
    def refs(self) -> int:
        return self.reads + self.writes

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.refs if self.refs else 0.0

    def render(self) -> str:
        lines = [
            f"dinero: {self.config.describe()}  policy={self.policy}",
            f"  reads   {self.reads:>12,}   misses {self.read_misses:>12,}",
            f"  writes  {self.writes:>12,}   misses {self.write_misses:>12,}",
            f"  total   {self.refs:>12,}   miss ratio {self.miss_ratio:.4f}",
        ]
        return "\n".join(lines)


def simulate_trace(references: Iterable[Tuple[bool, int]],
                   config: CacheConfig,
                   policy: str = "lru") -> DineroResult:
    """Run ``(is_write, byte address)`` references through one cache."""
    cache = Cache(config, make_policy(policy))
    line_bits = config.line_bits
    reads = read_misses = writes = write_misses = 0
    for t, (is_write, addr) in enumerate(references):
        hit, _ = cache.probe(addr >> line_bits, is_write, t)
        if not hit:
            cache.fill(addr >> line_bits, now=t, is_write=is_write)
        if is_write:
            writes += 1
            write_misses += 0 if hit else 1
        else:
            reads += 1
            read_misses += 0 if hit else 1
    return DineroResult(
        config=config, policy=policy,
        reads=reads, read_misses=read_misses,
        writes=writes, write_misses=write_misses,
    )


def simulate_din(source: Union[str, IO[str]], config: CacheConfig,
                 policy: str = "lru") -> DineroResult:
    """Simulate a din-format trace from a path or open stream."""
    if isinstance(source, str):
        with open(source) as handle:
            return simulate_trace(replay_din(handle), config, policy)
    return simulate_trace(replay_din(source), config, policy)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dinero",
        description="Trace-driven cache simulation over din files.",
    )
    parser.add_argument("trace", help="din-format trace file")
    parser.add_argument("--size", type=int, default=32 * 1024,
                        help="cache size in bytes (default %(default)s)")
    parser.add_argument("--assoc", type=int, default=8,
                        help="associativity (default %(default)s)")
    parser.add_argument("--line", type=int, default=64,
                        help="line size in bytes (default %(default)s)")
    parser.add_argument("--policy", default="lru",
                        choices=("lru", "fifo", "random", "plru"))
    args = parser.parse_args(argv)
    try:
        config = CacheConfig(size=args.size, assoc=args.assoc,
                             line_size=args.line)
    except ValueError as exc:
        parser.error(f"bad cache geometry: {exc}")
    try:
        result = simulate_din(args.trace, config, policy=args.policy)
    except OSError as exc:
        parser.error(f"cannot read trace {args.trace!r}: {exc.strerror}")
    except ValueError as exc:
        parser.error(f"{args.trace}: {exc}")
    print(result.render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
