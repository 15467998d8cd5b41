"""Rule-set compilation: fused same-LHS rule groups.

A tableau is by definition many pattern rows over one embedded FD, so a
session's rules overwhelmingly share their LHS attribute lists.  This
package compiles a rule set into **fused groups keyed by the LHS
attribute list**; every storage backend checks a group in one sweep
(``StorageBackend.check``, :mod:`repro.core.storage`), so a fragment is
swept once per *group* instead of once per *rule*.  A single rule is a
group of one: there is no per-rule path to switch to.

The compiler stays a package of its own because the benchmark harness
imports ``compile_rule_set`` from here.
"""

from repro.rulefuse.compiler import FusedGroup, compile_rule_set, n_fused_groups

__all__ = ["FusedGroup", "compile_rule_set", "n_fused_groups"]
