"""The unified reference-stream pipeline.

One batched event stream feeds every memory-event consumer in the repo
-- hierarchy caches, hardware counters, Cachegrind, the dinero trace
writer, the TLB, the phase detector, and UMI's profile recorder -- in
place of the ad-hoc per-consumer taps they used to carry.  See the
"Reference-stream pipeline" section of ``docs/ARCHITECTURE.md``.

Import surface only -- this package pulls in no simulator layers; the
built-in consumers (:mod:`repro.stream.consumers`) are loaded lazily by
the registry because they depend on :mod:`repro.memory` and
:mod:`repro.core`, which themselves import this package.
"""

from .consumer import (
    CollectingRefConsumer, LineConsumer, NullRefConsumer, RefConsumer,
)
from .events import KIND_IFETCH, KIND_READ, KIND_WRITE, LineBatch, RefBatch
from .hub import BATCH_SIZE, LineStream, QuarantineRecord, RefStream
from .registry import (
    REGISTRY, BuildContext, ConsumerEntry, ConsumerRegistry,
    consumer_names, create_consumer, register_consumer,
    spec_safe_consumer_names,
)

__all__ = [
    "BATCH_SIZE", "BuildContext", "CollectingRefConsumer", "ConsumerEntry",
    "ConsumerRegistry", "KIND_IFETCH", "KIND_READ", "KIND_WRITE",
    "LineBatch", "LineConsumer", "LineStream", "NullRefConsumer",
    "QuarantineRecord", "REGISTRY", "RefBatch", "RefConsumer", "RefStream",
    "consumer_names", "create_consumer", "register_consumer",
    "spec_safe_consumer_names",
]
