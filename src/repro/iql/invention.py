"""Oid invention — valuation-maps made concrete (Section 3.2).

The semantics quantifies over all *valuation-maps*: assignments of fresh,
pairwise-distinct oids to the head-only variables of the firing (rule,
valuation) pairs. All choices yield O-isomorphic results (Theorem 4.1.3);
an :class:`OidFactory` fixes one choice, and the determinacy experiments
run the same program with different factories and check the outputs are
O-isomorphic.
"""

from __future__ import annotations

import itertools

from repro.values.ovalues import Oid


class OidFactory:
    """Produces fresh oids for invention. The base class is the default:
    globally fresh anonymous oids, named for readability."""

    def invent(self, class_name: str) -> Oid:
        return Oid(f"{class_name}!")


class CountingOidFactory(OidFactory):
    """Numbers invented oids per class: ``P!1``, ``P!2``, ... Deterministic
    display names make transcripts and failure messages readable."""

    def __init__(self):
        self._counters = {}

    def invent(self, class_name: str) -> Oid:
        n = self._counters.get(class_name, 0) + 1
        self._counters[class_name] = n
        return Oid(f"{class_name}!{n}")


class PrefixedOidFactory(OidFactory):
    """Invents oids with a distinguishing prefix.

    Two evaluator runs with different prefixes can never collide on oid
    names, which makes the O-isomorphism of their outputs a meaningful
    check rather than an accident of shared identity.
    """

    def __init__(self, prefix: str):
        self.prefix = prefix
        self._counter = itertools.count(1)

    def invent(self, class_name: str) -> Oid:
        return Oid(f"{self.prefix}:{class_name}!{next(self._counter)}")
