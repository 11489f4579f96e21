package ir

// UnrolledLoop builds a loop whose body is replicated `factor` times, the
// way an UNROLL directive replicates hardware. body is invoked once per
// copy; operations created in copies > 0 are marked as replicas of the
// corresponding operation in copy 0 (matched by creation order), which the
// dataset sample filter uses to spot marginal operations of unrolled loops.
func (b *Builder) UnrolledLoop(name string, trips, factor int, body func(copy int)) *Loop {
	if factor < 1 {
		factor = 1
	}
	if factor > trips {
		factor = trips
	}
	l := b.EnterLoop(name, trips)
	l.Unroll = factor

	var originals []*Op
	for c := 0; c < factor; c++ {
		start := len(b.F.Ops)
		body(c)
		created := b.F.Ops[start:]
		if c == 0 {
			originals = append([]*Op(nil), created...)
			continue
		}
		for i, o := range created {
			if i < len(originals) {
				o.ReplicaOf = originals[i].ID
				o.ReplicaIdx = c
			}
		}
	}
	b.ExitLoop()
	return l
}

// PipelinedLoop builds a loop marked for pipelining with the given
// initiation interval.
func (b *Builder) PipelinedLoop(name string, trips, ii int, body func()) *Loop {
	l := b.EnterLoop(name, trips)
	l.Pipelined = true
	if ii < 1 {
		ii = 1
	}
	l.II = ii
	body()
	b.ExitLoop()
	return l
}
