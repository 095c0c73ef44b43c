package lp

import "slices"

// This file implements the basis factorization behind the revised simplex
// engine (revised.go): a product-form LU of the basis matrix B, rebuilt by
// refactor() and extended by one eta column per pivot (update()), with
// FTRAN/BTRAN solves over sparse work vectors.
//
// Representation. refactor() eliminates the basis columns in a sparsity-
// chosen order σ: step t pivots column basis[σ(t)] on row p_t and records
// the elementary matrix E_t (identity except column p_t, which holds the
// partially transformed basis column). The running transform
// M = E_k⁻¹···E_1⁻¹ then satisfies
//
//	M·B = Q,  with Q[p_t, σ(t)] = 1,
//
// i.e. M is B⁻¹ up to the row permutation Q, recorded as posOfPiv (pivot
// row → basis position) and rowOfPos (its inverse). A pivot that replaces
// basis position r builds its eta from the FTRAN'd entering column with
// pivot row rowOfPos[r]; E⁻¹·M then satisfies the same identity with the
// SAME Q for the new basis, so the permutation survives every update and is
// refreshed only by refactor(). FTRAN takes a vector in constraint-row
// space and returns M·v (callers map pivot rows to basis positions through
// posOfPiv); BTRAN takes basis-position costs scattered through rowOfPos
// and returns yᵀ = c_Bᵀ·B⁻¹ in constraint-row space.
//
// Triggers. The eta file is folded back into a fresh factorization when it
// exceeds etaUpdateCap updates or when its fill outgrows the base
// factorization (needRefactor). Floating-point codes pair the length
// trigger with an accuracy trigger; exact rational arithmetic cannot
// drift, so what grows instead is the bit-length of the eta entries — the
// fill bound is what caps that here.
//
// Kernels. The eta sweeps of FTRAN and BTRAN are methods of the field
// (arith.ftranEtas, arith.btranEtas in arith.go): the exact fields run one
// generic body, the float field a concrete float64 loop with the same
// results bit for bit.
//
// Storage. Every eta's rows and vals are capacity-capped windows into two
// slabs the factor owns (etaRows, etaVals), which refactor() truncates, so
// a refactor-and-update cycle allocates nothing once the slabs have grown.
// This is safe because an eta is never written after it is built, and
// refactor() drops every eta before it truncates the slabs. A rat64
// overflow that interrupts a refactor leaves a half-written slab behind,
// but every such overflow discards the whole engine (promote(),
// Model.dropRat64) and the solve reruns over big.Rat on a fresh one.

// eta is one elementary matrix E: identity except column piv, which holds
// pivV on the diagonal and vals on rows. E⁻¹·x is t := x[piv]/pivV;
// x[rows[k]] -= t·vals[k]; x[piv] = t.
type eta[T any] struct {
	piv  int32
	pivV T
	rows []int32
	vals []T
}

// spVec is a dense work vector with an explicit index list of the entries
// touched since the last clear, so FTRAN/BTRAN cost scales with the
// entries reached instead of with m. Listed entries may still be exactly
// zero after cancellation; consumers test signs. Untouched slots hold a
// shared ar.zero() value — never T's zero value, which for *big.Rat would
// be a nil pointer.
type spVec[T any] struct {
	val  []T
	mark []bool
	idx  []int32
}

func newSpVec[T any, A arith[T]](ar A, m int) *spVec[T] {
	v := &spVec[T]{val: make([]T, m), mark: make([]bool, m), idx: make([]int32, 0, 16)}
	z := ar.zero()
	for i := range v.val {
		v.val[i] = z
	}
	return v
}

func (v *spVec[T]) set(i int32, x T) {
	v.val[i] = x
	if !v.mark[i] {
		v.mark[i] = true
		v.idx = append(v.idx, i)
	}
}

func (v *spVec[T]) clear(zero T) {
	for _, i := range v.idx {
		v.val[i] = zero
		v.mark[i] = false
	}
	v.idx = v.idx[:0]
}

// colStore is the column-major (CSC) view of the standard-form matrix
// [A | I | S]: structural columns 0..nv-1 hold the problem matrix, logical
// column nv+i is e_i, and artificial column artStart+i is artSign[i]·e_i —
// the sign the revised engine's cold start chose so the activated
// artificial begins non-negative (the dense engine encodes the same choice
// by negating the whole tableau row; see tableau.cold).
type colStore[T any] struct {
	nv, m    int
	artStart int
	ptr      []int32
	rows     []int32
	vals     []T
	artSign  []int8
}

func newColStore[T any](csr *csrRows, convVal []T, nv int) *colStore[T] {
	m := csr.numRows()
	cs := &colStore[T]{nv: nv, m: m, artStart: nv + m, artSign: make([]int8, m)}
	ptr := make([]int32, nv+1)
	for _, c := range csr.cols {
		ptr[c+1]++
	}
	for j := 0; j < nv; j++ {
		ptr[j+1] += ptr[j]
	}
	cs.ptr = ptr
	cs.rows = make([]int32, len(csr.cols))
	cs.vals = make([]T, len(csr.cols))
	next := make([]int32, nv)
	copy(next, ptr[:nv])
	for i := 0; i < m; i++ {
		for k := csr.ptr[i]; k < csr.ptr[i+1]; k++ {
			j := csr.cols[k]
			at := next[j]
			cs.rows[at] = int32(i)
			cs.vals[at] = convVal[k]
			next[j]++
		}
	}
	return cs
}

// basisFactor is the factorized-basis state: the LU etas from the last
// refactorization, the eta file appended since, and the pivot-row
// permutation connecting raw (constraint-row) and basis-position space.
type basisFactor[T any, A arith[T]] struct {
	ar   A
	m    int
	cols *colStore[T]

	lu            []eta[T]
	upd           []eta[T]
	luNNZ, updNNZ int

	// Slabs holding every eta's rows and vals (see Storage above).
	etaRows []int32
	etaVals []T

	posOfPiv []int32 // raw pivot row → basis position
	rowOfPos []int32 // basis position → raw pivot row

	zero, one T

	claimed []bool      // refactor scratch: rows already pivoted
	work    *spVec[T]   // refactor scratch: partially transformed column
	structs []structCol // refactor scratch: structural basis columns
}

// structCol is a structural basis column queued for elimination: its basis
// position, column index and nonzero count.
type structCol struct{ pos, j, nnz int }

func newBasisFactor[T any, A arith[T]](ar A, cols *colStore[T]) *basisFactor[T, A] {
	m := cols.m
	return &basisFactor[T, A]{
		ar: ar, m: m, cols: cols,
		posOfPiv: make([]int32, m),
		rowOfPos: make([]int32, m),
		zero:     ar.zero(),
		one:      ar.one(),
		claimed:  make([]bool, m),
		work:     newSpVec(ar, m),
	}
}

// etaUpdateCap bounds the eta file between refactorizations. Each update
// makes every later FTRAN/BTRAN a little more expensive (and, in exact
// arithmetic, a little wider numerically), while a refactorization costs
// one partial FTRAN per basis column; a few dozen updates per rebuild is
// the classic balance point.
const etaUpdateCap = 64

func (f *basisFactor[T, A]) needRefactor() bool {
	return len(f.upd) >= etaUpdateCap || f.updNNZ > 4*(f.luNNZ+f.m)
}

// refactor rebuilds the factorization from the given basis: unit columns
// (logicals, artificials) pivot on their own row with zero fill, then the
// structural columns are eliminated in ascending-sparsity order, each
// pivoting on its lowest-index still-unclaimed nonzero row. A valid basis
// always factors; failure to find a pivot means the caller handed over a
// singular column set, which is an internal invariant violation.
func (f *basisFactor[T, A]) refactor(basis []int) {
	ar := f.ar
	cs := f.cols
	f.lu = f.lu[:0]
	f.upd = f.upd[:0]
	f.luNNZ, f.updNNZ = 0, 0
	f.etaRows = f.etaRows[:0]
	f.etaVals = f.etaVals[:0]
	for i := range f.claimed {
		f.claimed[i] = false
	}
	structs := f.structs[:0]
	for pos, j := range basis {
		switch {
		case j >= cs.artStart:
			i := j - cs.artStart
			if f.claimed[i] {
				panic("lp: singular basis") // two unit columns on one row
			}
			f.claimed[i] = true
			f.posOfPiv[i] = int32(pos)
			f.rowOfPos[pos] = int32(i)
			if cs.artSign[i] < 0 {
				f.lu = append(f.lu, eta[T]{piv: int32(i), pivV: ar.neg(f.one)})
				f.luNNZ++
			}
		case j >= cs.nv:
			i := j - cs.nv
			if f.claimed[i] {
				panic("lp: singular basis") // two unit columns on one row
			}
			f.claimed[i] = true
			f.posOfPiv[i] = int32(pos)
			f.rowOfPos[pos] = int32(i)
			// Identity eta: nothing to store.
		default:
			structs = append(structs, structCol{pos, j, int(cs.ptr[j+1] - cs.ptr[j])})
		}
	}
	f.structs = structs
	// (nnz, j) is a total order — a basis lists each column once — so the
	// sorted order does not depend on the sort algorithm.
	slices.SortFunc(structs, func(a, b structCol) int {
		if a.nnz != b.nnz {
			return a.nnz - b.nnz
		}
		return a.j - b.j
	})
	for _, sc := range structs {
		v := f.work
		v.clear(f.zero)
		for k := cs.ptr[sc.j]; k < cs.ptr[sc.j+1]; k++ {
			v.set(cs.rows[k], cs.vals[k])
		}
		ar.ftranEtas(f.lu, v)
		piv := int32(-1)
		for _, i := range v.idx {
			if f.claimed[i] || ar.sign(v.val[i]) == 0 {
				continue
			}
			if piv < 0 || i < piv {
				piv = i
			}
		}
		if piv < 0 {
			panic("lp: singular basis") // structural column eliminated to zero
		}
		a := len(f.etaRows)
		for _, i := range v.idx {
			if i == piv || ar.sign(v.val[i]) == 0 {
				continue
			}
			f.etaRows = append(f.etaRows, i)
			f.etaVals = append(f.etaVals, v.val[i])
		}
		rows, vals := f.etaWindow(a)
		f.lu = append(f.lu, eta[T]{piv: piv, pivV: v.val[piv], rows: rows, vals: vals})
		f.luNNZ += len(rows) + 1
		f.claimed[piv] = true
		f.posOfPiv[piv] = int32(sc.pos)
		f.rowOfPos[sc.pos] = piv
	}
}

// update extends the eta file after a basis exchange: alphaRaw is the
// FTRAN'd entering column (raw space, still untouched since ftran) and
// pivRow the raw pivot row of the leaving position. An identity eta is
// dropped rather than stored.
func (f *basisFactor[T, A]) update(alphaRaw *spVec[T], pivRow int32) {
	ar := f.ar
	a := len(f.etaRows)
	for _, i := range alphaRaw.idx {
		if i == pivRow || ar.sign(alphaRaw.val[i]) == 0 {
			continue
		}
		f.etaRows = append(f.etaRows, i)
		f.etaVals = append(f.etaVals, alphaRaw.val[i])
	}
	rows, vals := f.etaWindow(a)
	pv := alphaRaw.val[pivRow]
	if len(rows) == 0 && ar.cmp(pv, f.one) == 0 {
		return
	}
	f.upd = append(f.upd, eta[T]{piv: pivRow, pivV: pv, rows: rows, vals: vals})
	f.updNNZ += len(rows) + 1
}

// etaWindow returns the slab entries appended since offset a as one eta's
// rows and vals, capacity-capped so nothing can append through them into
// the next eta's entries.
func (f *basisFactor[T, A]) etaWindow(a int) ([]int32, []T) {
	b := len(f.etaRows)
	return f.etaRows[a:b:b], f.etaVals[a:b:b]
}

// ftran applies M in place: v ← E_k⁻¹···E_1⁻¹·v over the LU etas, then the
// update file. Input and output are in constraint-row (raw) space; the
// value of basis position posOfPiv[i] lands at raw index i.
func (f *basisFactor[T, A]) ftran(v *spVec[T]) {
	f.ar.ftranEtas(f.lu, v)
	f.ar.ftranEtas(f.upd, v)
}

// btran applies Mᵀ in place (transposed etas in reverse order): scatter
// basis-position costs through rowOfPos, btran, and the result is
// yᵀ = c_Bᵀ·B⁻¹ in constraint-row space, ready to dot against matrix
// columns.
func (f *basisFactor[T, A]) btran(v *spVec[T]) {
	f.ar.btranEtas(f.upd, v)
	f.ar.btranEtas(f.lu, v)
}
