package main

import (
	"math"
	"math/rand"

	"motor"
	"motor/internal/vm"
)

// stencil: 2-D Jacobi heat relaxation decomposed by rows. The global
// grid is (2*stencilRows+2) x stencilCols; rows 0 and 2*stencilRows+1
// and columns 0 and stencilCols-1 are fixed boundary values. Each rank
// owns stencilRows interior rows plus one row above and below (a fixed
// boundary row or a ghost row filled by the halo exchange).
const (
	stencilRows = 64
	stencilCols = 256
)

const stencilSrc = `
; Jacobi heat relaxation, one band of rows per rank.
.global g        ; float64[] current band, (R+2)*C row-major
.global nx       ; float64[] next band
.global srow     ; float64[C] outgoing halo row
.global rrow     ; float64[C] incoming halo row
.global res      ; float64[1] local residual
.global gres     ; float64[1] global residual
.global R
.global C
.global peer
.global sendoff  ; offset of the interior row the peer needs
.global ghostoff ; offset of the ghost row the peer fills

; init(band, R, C): adopt the harness-filled band, allocate the rest.
.method init (3) int32
  .locals 2
  ; 0=n 1=i
  ldarg 0  stsfld g
  ldarg 1  stsfld R
  ldarg 2  stsfld C
  ldarg 1 ldc.i4 2 add ldarg 2 mul stloc 0
  ldloc 0 newarr float64 stsfld nx
  ldc.i4 0 stloc 1
copy:
  ldloc 1 ldloc 0 clt brfalse copied
  ldsfld nx ldloc 1  ldsfld g ldloc 1 ldelem  stelem
  ldloc 1 ldc.i4 1 add stloc 1
  br copy
copied:
  ldarg 2 newarr float64 stsfld srow
  ldarg 2 newarr float64 stsfld rrow
  ldc.i4 1 newarr float64 stsfld res
  ldc.i4 1 newarr float64 stsfld gres
  intern mp.rank brtrue lower
  ; rank 0 holds the upper band: send row R, ghost row is R+1
  ldc.i4 1 stsfld peer
  ldarg 1 ldarg 2 mul stsfld sendoff
  ldarg 1 ldc.i4 1 add ldarg 2 mul stsfld ghostoff
  br done
lower:
  ; rank 1 holds the lower band: send row 1, ghost row is 0
  ldc.i4 0 stsfld peer
  ldarg 2 stsfld sendoff
  ldc.i4 0 stsfld ghostoff
done:
  ldc.i4 0
  ret.val
.end

; step() -> global residual (sum of squared updates) after one sweep.
.method step (0) float64
  .locals 9
  ; 0=i 1=j 2=base 3=acc 4=v 5=d 6=C 7=g 8=nx
  ldsfld C stloc 6
  ldsfld g stloc 7
  ldsfld nx stloc 8
  ldc.i4 0 stloc 1
pack:
  ldloc 1 ldloc 6 clt brfalse packed
  ldsfld srow ldloc 1  ldloc 7 ldsfld sendoff ldloc 1 add ldelem  stelem
  ldloc 1 ldc.i4 1 add stloc 1
  br pack
packed:
  ldsfld srow ldsfld peer ldc.i4 5  ldsfld rrow ldsfld peer ldc.i4 5  intern mp.sendrecv pop
  ldc.i4 0 stloc 1
unpack:
  ldloc 1 ldloc 6 clt brfalse unpacked
  ldloc 7 ldsfld ghostoff ldloc 1 add  ldsfld rrow ldloc 1 ldelem  stelem
  ldloc 1 ldc.i4 1 add stloc 1
  br unpack
unpacked:
  ldc.r8 0.0 stloc 3
  ldc.i4 1 stloc 0
rows:
  ldloc 0 ldsfld R cgt brtrue swept
  ldloc 0 ldloc 6 mul stloc 2
  ldc.i4 1 stloc 1
cols:
  ldloc 1 ldloc 6 ldc.i4 1 sub clt brfalse nextrow
  ldloc 7 ldloc 2 ldloc 6 sub ldloc 1 add ldelem
  ldloc 7 ldloc 2 ldloc 6 add ldloc 1 add ldelem add.f
  ldloc 7 ldloc 2 ldloc 1 add ldc.i4 1 sub ldelem add.f
  ldloc 7 ldloc 2 ldloc 1 add ldc.i4 1 add ldelem add.f
  ldc.r8 0.25 mul.f
  stloc 4
  ldloc 8 ldloc 2 ldloc 1 add ldloc 4 stelem
  ldloc 4  ldloc 7 ldloc 2 ldloc 1 add ldelem  sub.f stloc 5
  ldloc 3 ldloc 5 ldloc 5 mul.f add.f stloc 3
  ldloc 1 ldc.i4 1 add stloc 1
  br cols
nextrow:
  ldloc 0 ldc.i4 1 add stloc 0
  br rows
swept:
  ldloc 8 stsfld g
  ldloc 7 stsfld nx
  ldsfld res ldc.i4 0 ldloc 3 stelem
  ldsfld res ldsfld gres ldc.i4 0 intern mp.allreduce
  ldsfld gres ldc.i4 0 ldelem
  ret.val
.end
`

func stencilWorkload() *workload {
	return &workload{
		name:         "stencil",
		why:          "compute-bound 2-D Jacobi over shm: the quickened interpreter does almost all the work, halos are small and eager, and it allocates nothing (bypasses gc and serial)",
		channel:      "shm",
		steps:        50,
		callsPerStep: 2, // mp.sendrecv, mp.allreduce
		src:          stencilSrc,
		plan:         stencilPlan,
	}
}

func stencilPlan(w *workload, seed int64) *plan {
	const R, C = stencilRows, stencilCols
	rng := rand.New(rand.NewSource(seed))
	grid := make([]float64, (2*R+2)*C)
	for i := range grid {
		grid[i] = 100 * rng.Float64()
	}
	expect := jacobi(grid, R, C, w.steps)
	p := &plan{
		initArgs: func(r *motor.Rank) ([]motor.Value, error) {
			lo := r.ID() * R
			band, err := r.NewFloat64Array(grid[lo*C : (lo+R+2)*C])
			if err != nil {
				return nil, err
			}
			return []motor.Value{vm.RefValue(band), vm.IntValue(R), vm.IntValue(C)}, nil
		},
		reference: func() bool {
			got := jacobi(grid, R, C, w.steps)
			for i := range got {
				if got[i] != expect[i] {
					return false
				}
			}
			return true
		},
	}
	for rank := 0; rank < 2; rank++ {
		p.stepArgs[rank] = make([][]motor.Value, w.steps)
		p.expect[rank] = make([]uint64, w.steps)
		for i := range expect {
			p.expect[rank][i] = math.Float64bits(expect[i])
		}
	}
	return p
}

// jacobi is the serial reference: the same sweep over the whole grid,
// returning the global residual after each step. Residuals are summed
// per band, in the row order each rank uses, and the two band sums are
// added last, so the reference is bit-identical to the distributed
// program (float addition of two operands is commutative). The
// float64 conversion forbids fusing the square into the addition,
// which the interpreter never does.
func jacobi(grid []float64, rows, cols, steps int) []float64 {
	cur := append([]float64(nil), grid...)
	nxt := append([]float64(nil), grid...)
	out := make([]float64, steps)
	for s := range out {
		var band [2]float64
		for i := 1; i <= 2*rows; i++ {
			b := (i - 1) / rows
			acc := band[b]
			for j := 1; j < cols-1; j++ {
				k := i*cols + j
				v := (cur[k-cols] + cur[k+cols] + cur[k-1] + cur[k+1]) * 0.25
				nxt[k] = v
				d := v - cur[k]
				acc += float64(d * d)
			}
			band[b] = acc
		}
		out[s] = band[0] + band[1]
		cur, nxt = nxt, cur
	}
	return out
}
