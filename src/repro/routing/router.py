"""Difficulty routing: scoring requests into FAST / FULL / HEAVY tiers.

Most easy questions do not need the full 4-stage OpenSearch-SQL pipeline
(21-candidate structured-CoT sampling plus consistency alignment); Dönder
et al. (PAPERS.md, "Cheaper, Better, Faster, Stronger") show a single
no-CoT call is the dominant cost lever at scale.  The
:class:`DifficultyRouter` scores each (db_id, question, schema) request
from cheap heuristic features — question length, join/aggregate cue
words, schema fan-out, and the difficulty labels of the nearest few-shot
neighbors in the existing library — and maps the score onto a tier:

* ``FAST``  — single no-CoT call on the mini skill profile
  (:class:`~repro.routing.fastpath.FastPathPipeline`);
* ``FULL``  — the regular OpenSearch-SQL pipeline on the session model;
* ``HEAVY`` — the full pipeline on the large skill profile.

Routing is **pure and deterministic by seed**: the same (seed, db_id,
question) always produces the same :class:`RouteDecision`, which is what
makes tier-aware cache keys, journal replay and the cluster's per-shard
routers reproducible.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.caching import normalize_question
from repro.datasets.types import Example
from repro.seeded import fnv1a

__all__ = [
    "Tier",
    "RoutingConfig",
    "RouteFeatures",
    "RouteDecision",
    "DifficultyRouter",
]


class Tier(str, Enum):
    """The three serving tiers, cheapest first."""

    FAST = "fast"
    FULL = "full"
    HEAVY = "heavy"

    @property
    def next_tier(self) -> Optional["Tier"]:
        """The next tier up the escalation ladder (None at the top)."""
        ladder = (Tier.FAST, Tier.FULL, Tier.HEAVY)
        index = ladder.index(self)
        return ladder[index + 1] if index + 1 < len(ladder) else None


@dataclass(frozen=True)
class RoutingConfig:
    """Everything that parameterizes routing and escalation.

    ``seed`` defaults to None, meaning "inherit the base pipeline's
    config seed" — one knob keeps the router, the simulator and the
    cluster shards on the same deterministic page.
    """

    #: skill profile answering FAST-tier requests (single no-CoT call)
    fast_model: str = "gpt-4o-mini"
    #: skill profile answering HEAVY-tier requests (full pipeline)
    heavy_model: str = "gpt-4"
    #: score at or below which a request routes FAST
    fast_max: float = 0.30
    #: score at or above which a request routes straight to HEAVY
    heavy_min: float = 0.90
    #: few-shot neighbors consulted for the difficulty feature
    neighbor_k: int = 3
    #: candidates drawn by the fast path (1 answer + agreement probes)
    fast_candidates: int = 2
    #: FULL-tier vote share below which the request escalates to HEAVY
    vote_floor: float = 0.34
    #: deterministic per-question score jitter amplitude (tie-breaking)
    jitter: float = 0.02
    #: router seed; None inherits the pipeline config's seed
    seed: Optional[int] = None

    def to_dict(self) -> dict:
        """JSON-ready view (journal headers, cluster wire config)."""
        return {
            "fast_model": self.fast_model,
            "heavy_model": self.heavy_model,
            "fast_max": self.fast_max,
            "heavy_min": self.heavy_min,
            "neighbor_k": self.neighbor_k,
            "fast_candidates": self.fast_candidates,
            "vote_floor": self.vote_floor,
            "jitter": self.jitter,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RoutingConfig":
        """Inverse of :meth:`to_dict` (unknown keys ignored)."""
        names = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in payload.items() if k in names})


#: surface cues suggesting joins / grouping — each hit nudges the score up
_JOIN_CUES = (
    "join", "per ", "each ", "for every", "respective", "their ",
    "belong", "correspond", "associated", "who ", "whose ",
)
_AGGREGATE_CUES = (
    "average", "avg", "total", "sum", "count", "number of", "how many",
    "most", "least", "highest", "lowest", "maximum", "minimum", "max ",
    "min ", "top ", "ratio", "percentage", "percent", "difference",
    "more than", "less than", "at least", "at most", "between",
)

_DIFFICULTY_VALUE = {"simple": 0.0, "moderate": 0.5, "challenging": 1.0}

#: feature weights (sum to 1.0); neighbor difficulty dominates because the
#: few-shot library's labeled train split is the strongest difficulty
#: signal available without running a model
_WEIGHTS = {
    "neighbor": 0.42,
    "fanout": 0.16,
    "cues": 0.14,
    "length": 0.10,
    "evidence": 0.10,
    "dirty": 0.08,
}


@dataclass(frozen=True)
class RouteFeatures:
    """The cheap heuristic features one request was scored from."""

    question_words: int = 0
    cue_hits: int = 0
    table_count: int = 0
    column_count: int = 0
    #: mean difficulty of the nearest few-shot neighbors in [0, 1]
    neighbor_difficulty: float = 0.5
    has_evidence: bool = False
    dirty_values: int = 0

    def to_dict(self) -> dict:
        """JSON-ready view (journal records, trace attributes)."""
        return {
            "question_words": self.question_words,
            "cue_hits": self.cue_hits,
            "table_count": self.table_count,
            "column_count": self.column_count,
            "neighbor_difficulty": round(self.neighbor_difficulty, 6),
            "has_evidence": self.has_evidence,
            "dirty_values": self.dirty_values,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RouteFeatures":
        names = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in payload.items() if k in names})


@dataclass(frozen=True)
class RouteDecision:
    """One routed request: the tier, the score behind it, the features."""

    tier: Tier
    score: float
    features: RouteFeatures = field(default_factory=RouteFeatures)


class DifficultyRouter:
    """Scores requests into tiers from cheap request-side features.

    ``library`` is read dynamically through ``library_getter`` so the
    serving layer's :class:`CachingFewShotLibrary` wrapper (installed
    after pipeline construction) is picked up automatically.

    :meth:`route` is pure — it never mutates router state — so callers
    may invoke it any number of times (cache keys, journal replay,
    metrics) and always observe the same decision.  A small memo keyed by
    (db_id, normalized question) makes repeat calls free.
    """

    def __init__(self, library_getter, config: Optional[RoutingConfig] = None,
                 seed: int = 0, memo_size: int = 4096):
        self._library_getter = library_getter
        self.config = config or RoutingConfig()
        self.seed = self.config.seed if self.config.seed is not None else seed
        self._memo: dict[tuple, RouteDecision] = {}
        self._memo_size = memo_size
        self._lock = threading.Lock()

    # ------------------------------------------------------------ features

    def features(self, example: Example, pre) -> RouteFeatures:
        """Extract the routing features for one request.

        ``pre`` is the database's preprocessing artifact (duck-typed: only
        ``.schema`` is read) supplying the schema fan-out features.
        """
        question = example.question.lower()
        words = len(question.split())
        cue_hits = sum(1 for cue in _JOIN_CUES if cue in question)
        cue_hits += sum(1 for cue in _AGGREGATE_CUES if cue in question)
        schema = getattr(pre, "schema", None)
        tables = len(schema.tables) if schema is not None else 0
        columns = schema.column_count() if schema is not None else 0
        return RouteFeatures(
            question_words=words,
            cue_hits=cue_hits,
            table_count=tables,
            column_count=columns,
            neighbor_difficulty=self._neighbor_difficulty(example),
            has_evidence=bool(example.evidence),
            dirty_values=sum(1 for m in example.value_mentions if m.is_dirty),
        )

    def _neighbor_difficulty(self, example: Example) -> float:
        """Mean difficulty of the nearest few-shot neighbors in [0, 1]."""
        library = self._library_getter()
        if library is None:
            return 0.5
        surfaces = tuple(m.surface for m in example.value_mentions)
        shots = library.search(
            example.question, surfaces=surfaces, k=self.config.neighbor_k
        )
        if not shots:
            return 0.5
        values = [
            _DIFFICULTY_VALUE.get(shot.example.difficulty, 0.5) for shot in shots
        ]
        return sum(values) / len(values)

    # --------------------------------------------------------------- score

    def score(self, example: Example, features: RouteFeatures) -> float:
        """Difficulty score in roughly [0, 1] plus deterministic jitter."""
        parts = {
            "neighbor": features.neighbor_difficulty,
            "fanout": min(1.0, (max(features.table_count - 1, 0)) / 4.0 * 0.6
                          + features.column_count / 60.0 * 0.4),
            "cues": min(1.0, features.cue_hits / 4.0),
            "length": min(1.0, features.question_words / 24.0),
            "evidence": 1.0 if features.has_evidence else 0.0,
            "dirty": min(1.0, features.dirty_values / 2.0),
        }
        score = sum(_WEIGHTS[name] * value for name, value in parts.items())
        jitter_key = "|".join(
            ["route", str(self.seed), example.db_id,
             normalize_question(example.question)]
        )
        jitter = (fnv1a(jitter_key.encode()) % 1000) / 1000.0 * self.config.jitter
        return round(score + jitter, 6)

    # --------------------------------------------------------------- route

    def route(self, example: Example, pre) -> RouteDecision:
        """The deterministic tier decision for one request (pure)."""
        memo_key = (example.db_id, normalize_question(example.question))
        with self._lock:
            hit = self._memo.get(memo_key)
        if hit is not None:
            return hit
        features = self.features(example, pre)
        score = self.score(example, features)
        if score <= self.config.fast_max:
            tier = Tier.FAST
        elif score >= self.config.heavy_min:
            tier = Tier.HEAVY
        else:
            tier = Tier.FULL
        decision = RouteDecision(tier=tier, score=score, features=features)
        with self._lock:
            if len(self._memo) >= self._memo_size:
                self._memo.clear()
            self._memo[memo_key] = decision
        return decision
