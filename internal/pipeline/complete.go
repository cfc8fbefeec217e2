package pipeline

// resolveCompletions drains execution-complete events up to the current
// cycle. Its real work is branch resolution for the leading/single thread:
// training the predictor and squashing + redirecting on a misprediction.
// Trailing branches never redirect — their outcomes are validated at commit
// (BOQ in SRT, the program-order check in BlackJack).
//
// The events are the current cycle's completion-calendar bucket, already in
// GSeq order. A squash below marks younger uops of the bucket Squashed but
// leaves the bucket itself alone; issue, the only producer, runs later in the
// cycle.
func (m *Machine) resolveCompletions() {
	idx := m.cycle & m.calMask
	due := m.doneCal[idx]
	for _, u := range due {
		u.InEvents = false
		if u.Squashed {
			// The calendar held the last reference to an issued-then-squashed
			// uop (squash already removed it from the window and issue queue).
			m.recycleUOp(u)
			continue
		}
		m.trace(TraceComplete, u)
		if u.IsNOP {
			// Shuffle NOPs live only in the issue queue and this calendar
			// (they never enter the active list); this is their last
			// reference.
			m.recycleUOp(u)
			continue
		}
		if !u.Inst.IsBranch() || u.Thread != leadThread {
			continue
		}
		m.stats.Branches++
		mispredicted := u.Taken != u.PredTaken
		if u.Inst.IsCondBranch() {
			m.pred.Update(u.PredLookup, u.Taken)
		}
		if mispredicted {
			m.stats.Mispredicts++
			next := u.PC + 1
			if u.Taken {
				next = u.Target
			}
			m.squash(m.threads[u.Thread], u.Seq, next)
		}
	}
	m.doneCal[idx] = due[:0]
}

// scheduleDone files an issued uop in the completion-calendar bucket of its
// DoneCycle. Issue visits uops oldest first, so an insertion usually lands at
// the bucket's end; an older uop issued in a later cycle with a shorter
// latency steps back past the younger ones.
func (m *Machine) scheduleDone(u *UOp) {
	if u.DoneCycle-m.cycle > m.calMask {
		m.internalError("completion calendar horizon exceeded")
	}
	u.InEvents = true
	idx := u.DoneCycle & m.calMask
	b := append(m.doneCal[idx], u)
	i := len(b) - 1
	for ; i > 0 && b[i-1].GSeq > u.GSeq; i-- {
		b[i] = b[i-1]
	}
	b[i] = u
	m.doneCal[idx] = b
}
