// Package hql implements a small textual query language over the HRDM
// algebra, used by the hrdm-cli shell and the examples. Every operator of
// the paper's algebra is reachable:
//
//	SELECT IF SAL >= 30000 FORALL DURING {[0,9]} FROM EMP
//	SELECT WHEN SAL = 30000 FROM EMP
//	SELECT WHEN SAL = 30000 AND DEPT = "Toys" FROM EMP
//	SELECT IF NOT (SAL < 20000) OR DEPT = "Books" FORALL FROM EMP
//	PROJECT NAME, SAL FROM EMP
//	TIMESLICE EMP AT {[0,9]}             -- static TIME-SLICE
//	TIMESLICE EMP AT WHEN (SELECT WHEN SAL=30000 FROM EMP)
//	TIMESLICE EMP BY REVIEW              -- dynamic TIME-SLICE
//	EMP UNION EMP2, EMP UNIONMERGE EMP2, INTERSECT[MERGE], MINUS[MERGE]
//	EMP TIMES DEPTREL                    -- Cartesian product
//	EMP JOIN DEPTREL ON DEPT = DNAME     -- θ-join / equijoin
//	EMP NATJOIN MGR                      -- natural join
//	SHIP TIMEJOIN DEPTREL ON SHIPDATE    -- TIME-JOIN
//	EMP OUTERJOIN DEPTREL ON DEPT = DNAME -- §5 union-lifespan join (nulls)
//	MATERIALIZE EMP                      -- apply interpolators (Figure 9)
//	WHEN EMP                             -- Ω, yields a lifespan
//	SNAPSHOT EMP AT 7                    -- classical snapshot
//
// The package parses, rewrites (Optimize) and defines the meaning of a
// query: EvalNaive, the tree-walking reference evaluator, is the
// algebra's definitional semantics and the oracle the engine's planned
// execution (internal/engine, reached through engine.Session) is
// tested against. EvalNaive is snapshot-isolated like the engine: it
// pins one consistent cut of every referenced relation (pinenv.go)
// before walking, so even multi-relation queries read one database
// state while writers race.
package hql
