"""Dual-semantics ledger library.

One package, two ledgers: a UTxO-style chain whose validity, unspent-output
and equivalence machinery make submitted transactions order-independent up to
acceptance, and an account-style chain of named contracts where call effects
depend on execution order.  A tradable-token portal runs on both, and a
deterministic harness races the two under arbitrary interleavings.

The package re-exports nothing: import a name from the module that defines it.
"""
