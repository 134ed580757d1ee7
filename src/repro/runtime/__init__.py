"""Evaluation runtimes: online (+capture), layered offline, naive offline."""

from repro.runtime.db import OnlineDatabase, StoreDatabase
from repro.runtime.offline import run_layered, run_naive, run_reference
from repro.runtime.online import OnlineQueryProgram, run_online
from repro.runtime.results import OnlineRunResult, QueryResult

__all__ = [
    "OnlineDatabase",
    "StoreDatabase",
    "run_layered",
    "run_naive",
    "run_reference",
    "OnlineQueryProgram",
    "run_online",
    "OnlineRunResult",
    "QueryResult",
]
