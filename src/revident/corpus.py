"""Access to the bundled benchmark corpus.

Thirty-nine 4-wire circuits ship with the package: thirteen pairs
``app1_<n>a`` / ``app1_<n>b`` (a benchmark circuit with a ``#``
insertion marker, plus the identity segment that gets spliced in there)
and thirteen circuits ``app2_<n>`` whose ``[`` ``]`` bracket marks an
identity segment buried by construction.
"""

from __future__ import annotations

from importlib.resources import files

from .circuit import Circuit, parse_circuit

__all__ = ["corpus_ids", "corpus_text", "load_corpus_circuit", "SUITE1_IDS", "SUITE2_IDS"]

SUITE1_IDS: tuple[str, ...] = tuple(
    f"app1_{n}{suffix}" for n in range(1, 14) for suffix in ("a", "b")
)
SUITE2_IDS: tuple[str, ...] = tuple(f"app2_{n}" for n in range(1, 14))


def corpus_ids() -> tuple[str, ...]:
    return SUITE1_IDS + SUITE2_IDS


# Resolved once; a read then costs a path join, a stat and the read.
_CORPUS = files("revident") / "corpus"


def corpus_text(circuit_id: str) -> str:
    resource = _CORPUS / f"{circuit_id}.rev"
    if not resource.is_file():
        raise KeyError(f"no corpus circuit {circuit_id!r}")
    return resource.read_text(encoding="utf-8")


def load_corpus_circuit(circuit_id: str) -> Circuit:
    return parse_circuit(corpus_text(circuit_id))
