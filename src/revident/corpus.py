"""Access to the bundled benchmark corpus.

Thirty-nine 4-wire circuits ship with the package: thirteen pairs
``app1_<n>a`` / ``app1_<n>b`` (a benchmark circuit with a ``#``
insertion marker, plus the identity segment that gets spliced in there)
and thirteen circuits ``app2_<n>`` whose ``[`` ``]`` bracket marks an
identity segment buried by construction.

The files never change, so each circuit is read and parsed at most once
per process and the one ``Circuit`` is shared by every caller (circuits
and gates are immutable).  What is kept is bounded by the 39 ids: any
other id raises ``KeyError``.
"""

from __future__ import annotations

from .circuit import Circuit, parse_circuit

__all__ = ["corpus_ids", "corpus_text", "load_corpus_circuit", "SUITE1_IDS", "SUITE2_IDS"]

SUITE1_IDS: tuple[str, ...] = tuple(
    f"app1_{n}{suffix}" for n in range(1, 14) for suffix in ("a", "b")
)
SUITE2_IDS: tuple[str, ...] = tuple(f"app2_{n}" for n in range(1, 14))


def corpus_ids() -> tuple[str, ...]:
    return SUITE1_IDS + SUITE2_IDS


_IDS = frozenset(corpus_ids())
_CIRCUITS: dict[str, Circuit] = {}


def corpus_text(circuit_id: str) -> str:
    """The text of a corpus file.  Only the ids of ``corpus_ids()`` are
    accepted, so no other path can be read through this function."""
    if not isinstance(circuit_id, str) or circuit_id not in _IDS:
        raise KeyError(f"no corpus circuit {circuit_id!r}")
    from importlib.resources import files  # on use: a process reading no corpus loads none

    return (files("revident") / "corpus" / f"{circuit_id}.rev").read_text(encoding="utf-8")


def load_corpus_circuit(circuit_id: str) -> Circuit:
    """The parsed corpus circuit: read and parsed on the first call for
    its id, then the same object on every call.  An id outside
    ``corpus_ids()`` raises ``KeyError``."""
    try:
        return _CIRCUITS[circuit_id]
    except (KeyError, TypeError):  # not loaded yet, or not an id at all
        pass
    circuit = parse_circuit(corpus_text(circuit_id))
    # setdefault: when two threads race, both get the first one stored
    return _CIRCUITS.setdefault(circuit_id, circuit)
