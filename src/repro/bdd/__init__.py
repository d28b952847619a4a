"""From-scratch ROBDD engine.

The paper performs reachability and ATPG "by means of symbolic
techniques ... similar to those used for synchronous finite state
machines [10]" — i.e. BDD-based image computation.  This package
provides the production kernel: a hash-consed reduced ordered BDD
manager with complement edges, a unified ITE apply over one int-keyed
operation cache, quantification, the fused and-exists relational
product, arbitrary variable substitution and mark-and-sweep garbage
collection under a variable order fixed at construction
(:mod:`repro.bdd.manager`).  The seed engine is preserved as
:class:`LegacyBddManager` (:mod:`repro.bdd.legacy`) — the differential
oracle and the benchmark baseline.
"""

from repro.bdd.legacy import LegacyBddManager
from repro.bdd.manager import BddManager, BddStats

__all__ = ["BddManager", "BddStats", "LegacyBddManager"]
