package main

import (
	"math"
	"math/bits"
	"math/rand"

	"motor"
	"motor/internal/vm"
)

// objtree: each step both ranks build objtreePerStep fresh Transportable
// graphs of n nodes each (a linked list or a heap-shaped binary tree),
// swap each with mp.osend/mp.orecv, keep the received graphs live in a
// window of recent graphs, and return a depth-weighted checksum of what
// they received. The graph schedule (size, salt, shape) is a harness-filled
// array handed to init.
const (
	objtreeMinNodes = 16
	objtreeMaxNodes = 2048
	objtreeWindow   = 16
	// objtreePerStep graphs per step make a step a few milliseconds, long
	// against the millisecond stalls of a shared host, and average out
	// the size mix a single graph per step would put into step times.
	objtreePerStep = 4
)

const objtreeSrc = `
.class Node
  .field int64 val
  .field transportable Node left
  .field transportable Node right
.end

.global win    ; Node[] window of recently received graphs
.global sched  ; int32[] n, salt, tree for every graph of the solve
.global per    ; graphs per step
.global me
.global peer

; init(window, schedule, perStep)
.method init (3) int32
  ldarg 0 newarr Node stsfld win
  ldarg 1 stsfld sched
  ldarg 2 stsfld per
  intern mp.rank stsfld me
  ldc.i4 1 ldsfld me sub stsfld peer
  ldc.i4 0
  ret.val
.end

; build(n, salt, tree) -> root. Node k holds salt+k. A list links
; k-1 -> k through left; a tree links parent (k-1)/2 -> k through left
; (odd k) or right (even k).
.method build (3) Node
  .locals 4
  ; 0=nodes 1=k 2=node 3=parent
  ldarg 0 newarr Node stloc 0
  ldc.i4 0 stloc 1
next:
  ldloc 1 ldarg 0 clt brfalse built
  newobj Node stloc 2
  ldloc 2  ldarg 1 ldloc 1 add  stfld Node.val
  ldloc 0 ldloc 1 ldloc 2 stelem
  ldloc 1 brfalse linked
  ldarg 2 brtrue tree
  ldloc 0 ldloc 1 ldc.i4 1 sub ldelem  ldloc 2  stfld Node.left
  br linked
tree:
  ldloc 0 ldloc 1 ldc.i4 1 sub ldc.i4 2 div ldelem stloc 3
  ldloc 1 ldc.i4 1 and brfalse right
  ldloc 3 ldloc 2 stfld Node.left
  br linked
right:
  ldloc 3 ldloc 2 stfld Node.right
linked:
  ldloc 1 ldc.i4 1 add stloc 1
  br next
built:
  ldloc 0 ldc.i4 0 ldelem
  ret.val
.end

; walk(node, depth) -> sum of val*(depth+1) over the graph. Iterates
; down left links and recurses on right links, so a list never
; recurses and a tree recurses at most its height.
.method walk (2) int64
  .locals 1
  ldc.i4 0 stloc 0
loop:
  ldarg 0 ldnull ceq brtrue out
  ldloc 0  ldarg 0 ldfld Node.val  ldarg 1 ldc.i4 1 add  mul  add stloc 0
  ldloc 0  ldarg 0 ldfld Node.right  ldarg 1 ldc.i4 1 add  call walk  add stloc 0
  ldarg 0 ldfld Node.left starg 0
  ldarg 1 ldc.i4 1 add starg 1
  br loop
out:
  ldloc 0
  ret.val
.end

; step(i) -> sum of the checksums of the graphs received in step i.
.method step (1) int64
  .locals 5
  ; 0=mine 1=got 2=g 3=acc 4=j (graph index in the solve)
  ldc.i4 0 stloc 3
  ldc.i4 0 stloc 2
graph:
  ldloc 2 ldsfld per clt brfalse done
  ldarg 0 ldsfld per mul ldloc 2 add stloc 4
  ldsfld sched ldloc 4 ldc.i4 3 mul ldelem
  ldsfld sched ldloc 4 ldc.i4 3 mul ldc.i4 1 add ldelem
  ldsfld sched ldloc 4 ldc.i4 3 mul ldc.i4 2 add ldelem
  call build stloc 0
  ldsfld me brtrue second
  ldloc 0 ldsfld peer ldc.i4 3 intern mp.osend
  ldsfld peer ldc.i4 3 intern mp.orecv stloc 1
  br check
second:
  ldsfld peer ldc.i4 3 intern mp.orecv stloc 1
  ldloc 0 ldsfld peer ldc.i4 3 intern mp.osend
check:
  ldsfld win  ldloc 4 ldsfld win ldlen rem  ldloc 1 stelem
  ldloc 3 ldloc 1 ldc.i4 0 call walk add stloc 3
  ldloc 2 ldc.i4 1 add stloc 2
  br graph
done:
  ldloc 3
  ret.val
.end
`

func objtreeWorkload() *workload {
	return &workload{
		name:         "objtree",
		why:          "swaps fresh Transportable lists and trees of 16-2048 nodes with osend/orecv over shm: serializer, type-table cache, OO chunking, allocation and scavenges",
		channel:      "shm",
		steps:        100,
		callsPerStep: 2 * objtreePerStep, // mp.osend, mp.orecv per graph
		src:          objtreeSrc,
		plan:         objtreePlan,
	}
}

type graphSpec struct {
	n, salt int
	tree    bool
}

func objtreePlan(w *workload, seed int64) *plan {
	rng := rand.New(rand.NewSource(seed))
	graphs := w.steps * objtreePerStep
	var specs [2][]graphSpec
	for rank := range specs {
		// Graph g of every step draws from the g-th of objtreePerStep
		// equal log-width bands of [objtreeMinNodes, objtreeMaxNodes],
		// and exactly half of each band's graphs are trees. Every step
		// then carries the same size and shape mix, so the seed moves
		// the order and exact sizes but not the step-time distribution.
		specs[rank] = make([]graphSpec, graphs)
		span := float64(objtreeMaxNodes) / objtreeMinNodes
		for g := 0; g < objtreePerStep; g++ {
			lo := objtreeMinNodes * math.Pow(span, float64(g)/objtreePerStep)
			hi := objtreeMinNodes * math.Pow(span, float64(g+1)/objtreePerStep)
			sizes := stratified(rng, w.steps, int(lo), int(hi))
			trees := rng.Perm(w.steps)
			for i, n := range sizes {
				specs[rank][i*objtreePerStep+g] = graphSpec{n: n, salt: rng.Intn(1 << 20), tree: trees[i]%2 == 1}
			}
		}
	}
	p := &plan{
		initArgs: func(r *motor.Rank) ([]motor.Value, error) {
			sched := make([]int32, 0, 3*graphs)
			for _, s := range specs[r.ID()] {
				tree := int32(0)
				if s.tree {
					tree = 1
				}
				sched = append(sched, int32(s.n), int32(s.salt), tree)
			}
			arr, err := r.NewInt32Array(sched)
			if err != nil {
				return nil, err
			}
			return []motor.Value{vm.IntValue(objtreeWindow), vm.RefValue(arr), vm.IntValue(objtreePerStep)}, nil
		},
		reference: func() bool {
			for _, rankSpecs := range specs {
				for _, s := range rankSpecs {
					if uint64(walkGo(buildGo(s), 0)) != graphChecksum(s) {
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
		for i := range p.stepArgs[rank] {
			p.stepArgs[rank][i] = []motor.Value{vm.IntValue(int64(i))}
			for _, s := range specs[1-rank][i*objtreePerStep : (i+1)*objtreePerStep] {
				p.expect[rank][i] += graphChecksum(s)
			}
		}
	}
	return p
}

// graphChecksum is the expected walk result in closed form over node
// indices: node k sits at depth k in a list and floor(log2(k+1)) in a
// heap-shaped tree.
func graphChecksum(s graphSpec) uint64 {
	var sum int64
	for k := 0; k < s.n; k++ {
		depth := k
		if s.tree {
			depth = bits.Len(uint(k+1)) - 1
		}
		sum += int64(s.salt+k) * int64(depth+1)
	}
	return uint64(sum)
}

// goNode and buildGo/walkGo are the plain-Go version of the managed
// compute, timed as the reference solve.
type goNode struct {
	val         int64
	left, right *goNode
}

func buildGo(s graphSpec) *goNode {
	nodes := make([]*goNode, s.n)
	for k := range nodes {
		nodes[k] = &goNode{val: int64(s.salt + k)}
		switch {
		case k == 0:
		case !s.tree:
			nodes[k-1].left = nodes[k]
		case k%2 == 1:
			nodes[(k-1)/2].left = nodes[k]
		default:
			nodes[(k-1)/2].right = nodes[k]
		}
	}
	return nodes[0]
}

func walkGo(n *goNode, depth int64) int64 {
	var acc int64
	for ; n != nil; n, depth = n.left, depth+1 {
		acc += n.val*(depth+1) + walkGo(n.right, depth+1)
	}
	return acc
}
