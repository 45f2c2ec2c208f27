"""Satellite S6: no module may grow private memory-ref plumbing again.

The reference-stream pipeline (``repro.stream``) is the only place
memory-event fan-out may live.  This guard greps the source tree for
the idioms the refactor deleted -- ad-hoc observer callbacks and
observer lists -- so a regression shows up as a named file/line, not as
silently duplicated plumbing.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Idioms of the pre-pipeline plumbing.  Kept as literal substrings so
#: the failure message points at the exact offending line.
FORBIDDEN = ("ref_observer", "RefObserver", "AccessObserver", ".observers")

#: The pipeline package itself plus this guard's own vocabulary.
ALLOWED = {SRC / "stream"}


def _source_files():
    for path in sorted(SRC.rglob("*.py")):
        if any(allowed in path.parents for allowed in ALLOWED):
            continue
        yield path


def test_source_tree_exists():
    assert SRC.is_dir()
    assert sum(1 for _ in _source_files()) > 50


def test_no_private_ref_plumbing_outside_the_pipeline():
    offenders = []
    for path in _source_files():
        for lineno, line in enumerate(
                path.read_text().splitlines(), 1):
            if any(token in line for token in FORBIDDEN):
                offenders.append(
                    f"{path.relative_to(SRC)}:{lineno}: {line.strip()}")
    assert not offenders, (
        "memory-ref callback plumbing belongs in repro.stream:\n"
        + "\n".join(offenders))


#: Producer hot paths that must append columns, never build per-event
#: records.  The SoA refactor's whole point is that these modules pay a
#: handful of list appends per reference; a ``MemoryEvent(`` /
#: ``LineEvent(`` creeping back in means someone reintroduced an
#: array-of-structs hop on the hot path.
HOT_PRODUCERS = (
    SRC / "vm" / "interpreter.py",
    SRC / "vm" / "tracing.py",
    SRC / "memory" / "hierarchy.py",
)

FORBIDDEN_IN_PRODUCERS = ("MemoryEvent(", "LineEvent(")


def test_producer_hot_paths_stay_columnar():
    offenders = []
    for path in HOT_PRODUCERS:
        assert path.is_file(), path
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if any(token in line for token in FORBIDDEN_IN_PRODUCERS):
                offenders.append(
                    f"{path.relative_to(SRC)}:{lineno}: {line.strip()}")
    assert not offenders, (
        "producers append columns, never per-event records:\n"
        + "\n".join(offenders))


#: The per-event tuple contract the columnar stream replaced: its
#: delivery hooks and the materializer feeding them.  Matched as whole
#: words, so e.g. ``invocation_refs`` is not an offender.
FORBIDDEN_TUPLE_HOOKS = re.compile(r"\b(on_refs|on_lines|to_events)\b")

#: The per-event records; only the pipeline bench's frozen
#: array-of-structs yardstick may still build them.
FORBIDDEN_TUPLE_RECORDS = re.compile(r"MemoryEvent|LineEvent")
RECORDS_ALLOWED_IN = SRC / "stream" / "reference.py"


def test_one_stream_contract():
    """``on_batch`` / ``on_line_batch`` are the only delivery hooks."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if FORBIDDEN_TUPLE_HOOKS.search(line) or (
                    path != RECORDS_ALLOWED_IN
                    and FORBIDDEN_TUPLE_RECORDS.search(line)):
                offenders.append(
                    f"{path.relative_to(SRC)}:{lineno}: {line.strip()}")
    assert not offenders, (
        "the per-event tuple stream contract is gone; consumers "
        "implement on_batch / on_line_batch:\n" + "\n".join(offenders))
