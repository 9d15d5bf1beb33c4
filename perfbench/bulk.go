package main

import (
	"math/rand"

	"motor"
	"motor/internal/vm"
)

// bulk: each step allocates fresh float64 send/receive arrays of 128 KiB,
// above the 64 KiB eager threshold (so they go rendezvous) and below half
// the 1 MiB nursery (so they are nursery-resident), posts mp.irecv/mp.isend,
// allocates churn while both transfers are in flight, waits, and then
// allreduces the received array into another fresh array. Only every
// bulkStride-th element carries data; the checksum reads those back.
//
// The size is fixed and the seed only moves the data: whether a
// scavenge finds a transfer still in flight is a race by design, and a
// seed-drawn size would add the elder growth of whichever sizes came
// first to that variance.
const (
	bulkElems  = 16 << 10 // 128 KiB of float64
	bulkStride = 256
	// bulkChurn int64[64] arrays (about 2 MiB) are allocated per step
	// while the transfers are in flight: a couple of dozen scavenges
	// per step make every step's collector work alike and long against
	// the millisecond stalls of a shared host.
	bulkChurn = 4096
)

const bulkSrc = `
.global peer

.method init (0) int32
  ldc.i4 1 intern mp.rank sub stsfld peer
  ldc.i4 0
  ret.val
.end

; step(n, salt, churn) -> sum over marked elements s of recv[s] + 2*sum[s]
.method step (3) int64
  .locals 7
  ; 0=send 1=recv 2=i 3=rreq 4=sreq 5=sum 6=acc
  ldarg 0 newarr float64 stloc 0
  ldarg 0 newarr float64 stloc 1
  ldc.i4 0 stloc 2
mark:
  ldloc 2 ldarg 0 clt brfalse marked
  ldloc 0 ldloc 2  ldarg 1 ldloc 2 add conv.i2f  stelem
  ldloc 2 ldc.i4 256 add stloc 2
  br mark
marked:
  ldloc 1 ldsfld peer ldc.i4 9 intern mp.irecv stloc 3
  ldloc 0 ldsfld peer ldc.i4 9 intern mp.isend stloc 4
  ldc.i4 0 stloc 2
churn:
  ldloc 2 ldarg 2 clt brfalse churned
  ldc.i4 64 newarr int64 pop
  ldloc 2 ldc.i4 1 add stloc 2
  br churn
churned:
  ldloc 3 intern mp.wait pop
  ldloc 4 intern mp.wait pop
  ldarg 0 newarr float64 stloc 5
  ldloc 1 ldloc 5 ldc.i4 0 intern mp.allreduce
  ldc.i4 0 stloc 6
  ldc.i4 0 stloc 2
sum:
  ldloc 2 ldarg 0 clt brfalse summed
  ldloc 6  ldloc 1 ldloc 2 ldelem conv.f2i  add
  ldloc 5 ldloc 2 ldelem conv.f2i ldc.i4 2 mul  add stloc 6
  ldloc 2 ldc.i4 256 add stloc 2
  br sum
summed:
  ldloc 6
  ret.val
.end
`

func bulkWorkload() *workload {
	return &workload{
		name:         "bulk",
		why:          "rendezvous isend/irecv of fresh nursery arrays over loopback TCP with churn in flight, then a large allreduce: sock channel, ADI rendezvous and conditional pins under GC",
		channel:      "sock",
		steps:        50,
		callsPerStep: 5, // mp.irecv, mp.isend, 2x mp.wait, mp.allreduce
		src:          bulkSrc,
		plan:         bulkPlan,
	}
}

type bulkStep struct {
	n     int
	salts [2]int
}

func bulkPlan(w *workload, seed int64) *plan {
	rng := rand.New(rand.NewSource(seed))
	steps := make([]bulkStep, w.steps)
	for i := range steps {
		steps[i] = bulkStep{n: bulkElems, salts: [2]int{rng.Intn(1 << 20), rng.Intn(1 << 20)}}
	}
	p := &plan{
		initArgs: func(r *motor.Rank) ([]motor.Value, error) { return nil, nil },
		reference: func() bool {
			for _, s := range steps {
				for rank := 0; rank < 2; rank++ {
					if bulkGo(s, rank) != bulkChecksum(s, rank) {
						return false
					}
				}
			}
			return true
		},
	}
	for rank := 0; rank < 2; rank++ {
		p.stepArgs[rank] = make([][]motor.Value, w.steps)
		p.expect[rank] = make([]uint64, w.steps)
		for i, s := range steps {
			p.stepArgs[rank][i] = []motor.Value{vm.IntValue(int64(s.n)), vm.IntValue(int64(s.salts[rank])), vm.IntValue(bulkChurn)}
			p.expect[rank][i] = uint64(bulkChecksum(s, rank))
		}
	}
	return p
}

// bulkChecksum is the expected step result in closed form: with m
// marked elements at offsets 0, S, 2S, ... the peer's array holds
// salt_peer+s there and the allreduced array holds salt_0+salt_1+2s.
func bulkChecksum(s bulkStep, rank int) int64 {
	m := int64((s.n + bulkStride - 1) / bulkStride)
	offsets := int64(bulkStride) * m * (m - 1) / 2
	recv := m*int64(s.salts[1-rank]) + offsets
	sum := m*int64(s.salts[0]+s.salts[1]) + 2*offsets
	return recv + 2*sum
}

// bulkGo is the plain-Go version of one rank's step compute (the
// transfers become copies), timed as the reference solve.
func bulkGo(s bulkStep, rank int) int64 {
	var bufs [2][]float64
	for r := range bufs {
		bufs[r] = make([]float64, s.n)
		for i := 0; i < s.n; i += bulkStride {
			bufs[r][i] = float64(s.salts[r] + i)
		}
	}
	for i := 0; i < bulkChurn; i++ {
		churnSink = make([]int64, 64)
	}
	recv := append([]float64(nil), bufs[1-rank]...)
	sum := make([]float64, s.n)
	for i := range sum {
		sum[i] = bufs[0][i] + bufs[1][i]
	}
	var acc int64
	for i := 0; i < s.n; i += bulkStride {
		acc += int64(recv[i]) + 2*int64(sum[i])
	}
	return acc
}

// churnSink keeps the reference's churn allocations from being
// optimised away.
var churnSink []int64
