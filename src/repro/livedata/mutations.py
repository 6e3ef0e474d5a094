"""Seeded, replayable live mutations against built benchmark databases.

The :class:`MutationDriver` is the execution-layer chaos source of the
live-data world: it applies real DDL/DML — add/drop column, rename
table, value churn — to a :class:`~repro.datasets.build.BuiltDatabase`'s
SQLite connection *and* its schema model, then bumps the database's
``schema_epoch`` in the :class:`~repro.livedata.epoch.EpochRegistry`.

Design constraints, in order:

* **Deterministic and schedule-independent.**  Every choice (database,
  mutation kind, table, values) derives from ``stable_hash(seed,
  counter, …)`` — the same seed replays the same mutation sequence on
  any machine, which the drift-fuzz certifier's two-run diff relies on.
* **Pipeline-survivable.**  Mutations must never break previously valid
  gold SQL: dropped columns are only ever columns a *previous mutation
  added*, and a renamed table leaves compatibility views behind for
  every historical name, so SQL generated at any epoch still executes
  at any later epoch (scoring replays all answers against the final
  state).
* **Rebuild-replayable.**  ``BuiltDatabase.rebuild`` (the executor's
  reconnect recipe) is wrapped to re-apply the mutation log after
  recreating the pristine content, so a chaos-recycled connection does
  not silently time-travel the database back to epoch 0.
"""

from __future__ import annotations

import re
import sqlite3
import threading
from dataclasses import dataclass, replace
from typing import Optional

from repro.datasets.build import Benchmark, BuiltDatabase
from repro.livedata.epoch import EpochRegistry
from repro.schema.model import Column, Database
from repro.seeded import stable_hash

__all__ = ["MutationEvent", "MutationDriver", "MUTATION_KINDS"]

#: the drawable mutation kinds; value churn is deliberately twice as
#: likely — DML dominates DDL in any real write stream
MUTATION_KINDS = (
    "value_churn",
    "add_column",
    "value_churn",
    "rename_table",
    "drop_column",
)

_RENAME_SUFFIX = re.compile(r"__r\d+$")


@dataclass(frozen=True)
class MutationEvent:
    """One applied mutation: what changed, at which epoch."""

    db_id: str
    epoch: int
    kind: str
    detail: str
    statements: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "db_id": self.db_id,
            "epoch": self.epoch,
            "kind": self.kind,
            "detail": self.detail,
            "statements": list(self.statements),
        }


class MutationDriver:
    """Apply seeded live mutations to a benchmark's databases."""

    def __init__(
        self,
        benchmark: Benchmark,
        registry: EpochRegistry,
        seed: int = 0,
        kinds: tuple[str, ...] = MUTATION_KINDS,
    ):
        self.benchmark = benchmark
        self.registry = registry
        self.seed = seed
        if not kinds:
            raise ValueError("at least one mutation kind is required")
        # ALTER TABLE … DROP COLUMN needs SQLite >= 3.35; on an older
        # library the kind is excluded from the pool up front so the
        # draw sequence stays deterministic for the whole campaign.
        if sqlite3.sqlite_version_info < (3, 35, 0):
            kinds = tuple(k for k in kinds if k != "drop_column") or ("value_churn",)
        self.kinds = kinds
        self._lock = threading.Lock()
        self._counter = 0
        self.events: list[MutationEvent] = []
        #: db_id → statements applied so far, for rebuild replay
        self._applied: dict[str, list[str]] = {}
        #: db_id → column names added by mutations (drop candidates)
        self._drift_columns: dict[str, list[tuple[str, str]]] = {}
        #: db_id → {current table name: [historical names]}
        self._aliases: dict[str, dict[str, list[str]]] = {}
        self._wrapped_rebuilds: set[str] = set()

    # -------------------------------------------------------------- drawing

    def _draw(self, *parts: object) -> int:
        return stable_hash(self.seed, "mutation", *parts)

    def _pick(self, options: list, *parts: object):
        return options[self._draw(*parts) % len(options)]

    # -------------------------------------------------------------- applying

    def mutate(self, db_id: Optional[str] = None) -> MutationEvent:
        """Apply the next seeded mutation (optionally pinned to one db).

        Returns the applied :class:`MutationEvent`; the database's epoch
        has already been bumped (listeners fired) when this returns.
        """
        with self._lock:
            counter = self._counter
            self._counter += 1
            if db_id is None:
                db_id = self._pick(sorted(self.benchmark.databases), counter, "db")
            built = self.benchmark.databases[db_id]
            kind = self._pick(list(self.kinds), counter, "kind")
            if kind == "drop_column" and not self._drift_columns.get(db_id):
                kind = "value_churn"  # nothing droppable yet
            apply = getattr(self, f"_apply_{kind}")
            detail, statements = apply(db_id, built, counter)
            self._ensure_rebuild_replays(db_id, built)
            self._applied.setdefault(db_id, []).extend(statements)
        epoch = self.registry.bump(db_id)
        event = MutationEvent(
            db_id=db_id,
            epoch=epoch,
            kind=kind,
            detail=detail,
            statements=tuple(statements),
        )
        self.events.append(event)
        return event

    def _execute(self, built: BuiltDatabase, statements: list[str]) -> None:
        for statement in statements:
            built.connection.execute(statement)
        built.connection.commit()

    def _ensure_rebuild_replays(self, db_id: str, built: BuiltDatabase) -> None:
        """Wrap ``rebuild`` so a reconnect replays the mutation log."""
        if db_id in self._wrapped_rebuilds or built.rebuild is None:
            return
        self._wrapped_rebuilds.add(db_id)
        pristine = built.rebuild

        def rebuild() -> sqlite3.Connection:
            connection = pristine()
            for statement in self._applied.get(db_id, ()):
                connection.execute(statement)
            connection.commit()
            return connection

        built.rebuild = rebuild

    # ----------------------------------------------------------- value churn

    def _apply_value_churn(
        self, db_id: str, built: BuiltDatabase, counter: int
    ) -> tuple[str, list[str]]:
        """INSERT a fresh row with previously unseen values."""
        tables = [t for t in built.schema.tables if not self._is_view_backed(db_id, t.name)]
        table = self._pick(tables or list(built.schema.tables), counter, "table")
        values = []
        for column in table.columns:
            values.append(self._literal(column, counter))
        statement = (
            f'INSERT INTO "{table.name}" ({", ".join(self._quoted_columns(table))}) '
            f"VALUES ({', '.join(values)})"
        )
        statements = [statement]
        self._execute(built, statements)
        return f"insert into {table.name}", statements

    def _is_view_backed(self, db_id: str, name: str) -> bool:
        """True when ``name`` is a compatibility view, not a real table."""
        for historical in self._aliases.get(db_id, {}).values():
            if name in historical:
                return True
        return False

    @staticmethod
    def _quoted_columns(table) -> list[str]:
        return [f'"{c.name}"' for c in table.columns]

    @staticmethod
    def _literal(column: Column, counter: int) -> str:
        type_name = column.type_name.upper()
        if type_name in ("INTEGER", "INT"):
            return str(900_000 + counter)
        if type_name == "REAL":
            return f"{900_000 + counter}.5"
        if type_name in ("DATE", "DATETIME"):
            return f"'2099-01-{(counter % 28) + 1:02d}'"
        if column.is_primary:
            return f"'drift-pk-{counter}'"
        return f"'drift value {counter}'"

    # ------------------------------------------------------------ add column

    def _apply_add_column(
        self, db_id: str, built: BuiltDatabase, counter: int
    ) -> tuple[str, list[str]]:
        tables = [t for t in built.schema.tables if not self._is_view_backed(db_id, t.name)]
        table = self._pick(tables or list(built.schema.tables), counter, "table")
        name = f"drift_extra_{counter}"
        default = f"drift default {counter}"
        statements = [
            f'ALTER TABLE "{table.name}" ADD COLUMN "{name}" TEXT '
            f"DEFAULT '{default}'"
        ]
        self._execute(built, statements)
        column = Column(
            name=name,
            type_name="TEXT",
            description=f"live column added at mutation {counter}",
            value_examples=(default,),
        )
        new_table = replace(table, columns=table.columns + (column,))
        self._swap_table(built, table.name, new_table)
        self._drift_columns.setdefault(db_id, []).append((table.name, name))
        return f"add column {table.name}.{name}", statements

    # ----------------------------------------------------------- drop column

    def _apply_drop_column(
        self, db_id: str, built: BuiltDatabase, counter: int
    ) -> tuple[str, list[str]]:
        candidates = self._drift_columns[db_id]
        table_name, column_name = self._pick(candidates, counter, "drop")
        candidates.remove((table_name, column_name))
        statements = [f'ALTER TABLE "{table_name}" DROP COLUMN "{column_name}"']
        self._execute(built, statements)
        table = built.schema.table(table_name)
        new_table = replace(
            table,
            columns=tuple(c for c in table.columns if c.name != column_name),
        )
        self._swap_table(built, table_name, new_table)
        return f"drop column {table_name}.{column_name}", statements

    # ---------------------------------------------------------- rename table

    def _apply_rename_table(
        self, db_id: str, built: BuiltDatabase, counter: int
    ) -> tuple[str, list[str]]:
        tables = [t for t in built.schema.tables if not self._is_view_backed(db_id, t.name)]
        table = self._pick(tables or list(built.schema.tables), counter, "table")
        current = table.name
        base = _RENAME_SUFFIX.sub("", current)
        new_name = f"{base}__r{counter}"
        aliases = self._aliases.setdefault(db_id, {})
        historical = aliases.pop(current, []) + [current]
        statements = [f'DROP VIEW IF EXISTS "{alias}"' for alias in historical[:-1]]
        statements.append(f'ALTER TABLE "{current}" RENAME TO "{new_name}"')
        statements.extend(
            f'CREATE VIEW "{alias}" AS SELECT * FROM "{new_name}"'
            for alias in historical
        )
        self._execute(built, statements)
        aliases[new_name] = historical
        # Drift columns ride along with their renamed table so a later
        # drop targets the live physical name.
        self._drift_columns[db_id] = [
            (new_name if t == current else t, c)
            for (t, c) in self._drift_columns.get(db_id, [])
        ]
        new_table = replace(table, name=new_name)
        self._swap_table(built, current, new_table, renamed_from=current)
        return f"rename table {current} -> {new_name}", statements

    # ------------------------------------------------------- schema plumbing

    @staticmethod
    def _swap_table(
        built: BuiltDatabase,
        old_name: str,
        new_table,
        renamed_from: Optional[str] = None,
    ) -> None:
        """Republish ``built.schema`` with ``old_name`` replaced."""
        schema: Database = built.schema
        tables = tuple(
            new_table if t.name == old_name else t for t in schema.tables
        )
        foreign_keys = schema.foreign_keys
        if renamed_from is not None:
            foreign_keys = tuple(
                replace(
                    fk,
                    table=new_table.name if fk.table == renamed_from else fk.table,
                    ref_table=(
                        new_table.name if fk.ref_table == renamed_from else fk.ref_table
                    ),
                )
                for fk in foreign_keys
            )
        built.schema = replace(schema, tables=tables, foreign_keys=foreign_keys)

    # -------------------------------------------------------------- reporting

    def log_dict(self) -> list[dict]:
        """JSON-ready mutation log (ordered)."""
        return [event.to_dict() for event in self.events]
