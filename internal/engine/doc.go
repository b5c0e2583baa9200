// Package engine is the physical query-execution subsystem layered over
// the HRDM algebra of internal/core.
//
// The algebra operators are faithful linear scans — every TIME-SLICE,
// SELECT and JOIN walks all tuples and their chronon sets. This package
// adds the classic relational-engine machinery on top without touching
// the model semantics: a lifespan interval index (which tuples are alive
// over [t1,t2] in O(log n + k)), key/attribute hash indexes over the
// constant-valued functions the paper's CD domains guarantee, a
// cost-aware planner that lowers parsed HQL expressions into streaming
// iterator plans with selection and time-slice pushdown (falling back to
// the naive evaluator wherever no index applies), per-relation
// statistics feeding the planner's selectivity and join estimates, and
// a plan cache that lets repeated queries skip parse and plan entirely.
// Indexes absorb single-tuple inserts, merges and coalesced batches
// incrementally from relation change notifications instead of
// rebuilding. Every query executes against a pinned epoch snapshot of
// its relations (core.Pin), so multi-relation plans read one
// consistent database state with zero locks on the scan path even
// while writers publish.
//
// A query has one entry path: open a DB over a store (OpenDB or
// OpenDBOptions, which also fixes the parallel degree) and run it
// through a Session — Query, Eval, Explain or ExplainAnalyze. With the
// optimizer on, Query parses, applies hql.Optimize and runs the
// rewritten expression on Eval's path. hql.EvalNaive, the tree-walking
// evaluator that defines the algebra's meaning, is the oracle the
// planner is tested against (equivalence_test.go and the difftest
// package, at every parallel degree) and the fallback for expressions
// the planner cannot compile.
//
// The concurrency lifecycle — how plans, pins, write groups and the
// plan cache interlock — is documented in docs/ARCHITECTURE.md; the
// EXPLAIN output format is documented line by line in docs/EXPLAIN.md.
package engine
