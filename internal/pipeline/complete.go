package pipeline

// resolveCompletions drains execution-complete events up to the current
// cycle. Its real work is branch resolution for the leading/single thread:
// training the predictor and squashing + redirecting on a misprediction.
// Trailing branches never redirect — their outcomes are validated at commit
// (BOQ in SRT, the program-order check in BlackJack).
func (m *Machine) resolveCompletions() {
	for len(m.events) > 0 && m.events[0].DoneCycle <= m.cycle {
		u := m.events.pop()
		u.InEvents = false
		if u.Squashed {
			// The heap held the last reference to an issued-then-squashed uop
			// (squash already removed it from the window and issue queue).
			m.recycleUOp(u)
			continue
		}
		m.trace(TraceComplete, u)
		if u.IsNOP {
			// Shuffle NOPs live only in the issue queue and this heap (they
			// never enter the active list); this pop is their last reference.
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
}
