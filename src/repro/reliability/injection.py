"""Deterministic fault injection for any :class:`~repro.llm.base.LLMClient`.

:class:`FaultInjectingLLM` is the infrastructure-noise channel symmetric to
the semantic-noise channels of :mod:`repro.llm.noise`: seeded, rate-
configurable, and recorded.  Wrap any client with it and a benchmark run
experiences rate limits, timeouts, truncated/empty/malformed completions
and latency spikes at known rates — which is how the reliability benches
measure EX retention under infrastructure stress.

Determinism: each call draws from a ``random.Random`` seeded at
construction, so the same wrapped run injects the same fault sequence.
(Retries advance the sequence — a retried call is a *new* call, exactly as
a real API would treat it.)
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Optional

from repro.llm.base import LLMClient, LLMResponse
from repro.observability.context import add_event
from repro.reliability.faults import (
    FaultKind,
    RateLimitError,
    ServiceUnavailableError,
    TransientTimeoutError,
)
from repro.reliability.stats import ReliabilityStats
from repro.seeded import pick_band

__all__ = ["FaultPlan", "FaultInjectingLLM"]

_MALFORMED_TEXTS = (
    "I'm sorry, I can't help with writing SQL for that request.",
    '{"error": "upstream model returned an unexpected payload"}',
    "<<<garbled bytes: \x00\x01\x02 stream reset by peer>>>",
)


@dataclass(frozen=True)
class FaultPlan:
    """Per-kind injection rates (independent probabilities per call).

    Transport rates decide whether the call raises instead of returning;
    content rates decide whether the returned completions are degraded.
    At most one transport fault and one content fault fire per call.
    """

    rate_limit: float = 0.0
    timeout: float = 0.0
    service_unavailable: float = 0.0
    truncated: float = 0.0
    empty: float = 0.0
    malformed: float = 0.0
    latency_spike: float = 0.0
    #: seconds added to every response's reported latency on a spike
    spike_seconds: float = 30.0

    @classmethod
    def transient(cls, rate: float) -> "FaultPlan":
        """A plan injecting only retryable transport faults at ``rate``
        total, split across rate limits, timeouts and 5xx errors."""
        return cls(
            rate_limit=rate / 2.0, timeout=rate / 4.0, service_unavailable=rate / 4.0
        )

    @classmethod
    def content(cls, rate: float) -> "FaultPlan":
        """A plan degrading only completion content at ``rate`` total."""
        return cls(truncated=rate / 3.0, empty=rate / 3.0, malformed=rate / 3.0)

    @classmethod
    def chaos(cls, rate: float) -> "FaultPlan":
        """Everything at once: ``rate`` transport plus ``rate`` content."""
        transient = cls.transient(rate)
        content = cls.content(rate)
        return replace(
            transient,
            truncated=content.truncated,
            empty=content.empty,
            malformed=content.malformed,
            latency_spike=rate / 4.0,
        )

    def transport_rate(self) -> float:
        """Total probability of a transport fault per call."""
        return min(1.0, self.rate_limit + self.timeout + self.service_unavailable)


class FaultInjectingLLM:
    """Wraps a client and injects faults per a :class:`FaultPlan`.

    Every injected fault is appended to :attr:`stats` (a
    :class:`~repro.reliability.stats.ReliabilityStats`) so benchmark
    assertions can reconcile observed degradation with injected cause.
    """

    def __init__(
        self,
        inner: LLMClient,
        plan: FaultPlan,
        seed: int = 0,
        stats: Optional[ReliabilityStats] = None,
    ):
        self.inner = inner
        self.plan = plan
        self.model_name = inner.model_name
        self.stats = stats if stats is not None else ReliabilityStats()
        self._rng = random.Random(seed)
        self._call_index = 0

    # ------------------------------------------------------------- helpers

    def _record(self, kind: FaultKind, detail: str = "") -> None:
        self.stats.record_fault(
            kind.value, self._call_index, model=self.model_name, detail=detail
        )
        add_event("llm_fault_injected", kind=kind.value, detail=detail)

    def _transport_fault(self) -> None:
        """Raise a transport fault when the draw lands in a transport band."""
        plan = self.plan
        kind = pick_band(
            self._rng.random(),
            (
                (FaultKind.RATE_LIMIT, plan.rate_limit),
                (FaultKind.TIMEOUT, plan.timeout),
                (FaultKind.SERVICE_UNAVAILABLE, plan.service_unavailable),
            ),
        )
        if kind is None:
            return
        self._record(kind)
        if kind is FaultKind.RATE_LIMIT:
            raise RateLimitError(retry_after=0.5)
        if kind is FaultKind.TIMEOUT:
            raise TransientTimeoutError("request timed out after 60s")
        raise ServiceUnavailableError("503 service unavailable")

    def _degrade(self, responses: list[LLMResponse]) -> list[LLMResponse]:
        """Apply at most one content fault to the response list."""
        plan = self.plan
        kind = pick_band(
            self._rng.random(),
            (
                (FaultKind.TRUNCATED, plan.truncated),
                (FaultKind.EMPTY, plan.empty),
                (FaultKind.MALFORMED, plan.malformed),
                (FaultKind.LATENCY_SPIKE, plan.latency_spike),
            ),
        )
        if kind is None:
            return responses
        if kind is FaultKind.LATENCY_SPIKE:
            self._record(kind)
            return [
                replace(r, latency_seconds=r.latency_seconds + plan.spike_seconds)
                for r in responses
            ]
        victim = self._rng.randrange(len(responses))
        self._record(kind, detail=f"candidate {victim}")
        text = responses[victim].text
        if kind is FaultKind.TRUNCATED:
            text = text[: max(1, len(text) // 3)]
        elif kind is FaultKind.EMPTY:
            text = ""
        else:
            text = _MALFORMED_TEXTS[self._rng.randrange(len(_MALFORMED_TEXTS))]
        responses[victim] = replace(responses[victim], text=text)
        return responses

    # ----------------------------------------------------------------- API

    def complete(
        self,
        prompt: str,
        *,
        temperature: float = 0.0,
        n: int = 1,
        task: Optional[object] = None,
    ) -> list[LLMResponse]:
        """Complete via the wrapped client, possibly injecting a fault."""
        self._call_index += 1
        self.stats.calls += 1
        self._transport_fault()
        responses = list(
            self.inner.complete(prompt, temperature=temperature, n=n, task=task)
        )
        if responses:
            responses = self._degrade(responses)
        return responses
