package smp

import (
	"testing"

	"itsim/internal/exec"
	"itsim/internal/kernel"
	"itsim/internal/pagetable"
	"itsim/internal/policy"
	"itsim/internal/workload"
)

// TestStealRehomesPendingSwapIns steals a process with two swap-ins in
// flight on its owner core: one already due on the thief's clock, which
// must land during the steal, and one due later, which must move to the
// thief's engine and land there.
func TestStealRehomesPendingSwapIns(t *testing.T) {
	b, err := workload.BatchByName("2_Data_Intensive")
	if err != nil {
		t.Fatal(err)
	}
	var specs []exec.ProcessSpec
	for i, g := range b.Generators(0.02) {
		specs = append(specs, exec.ProcessSpec{Name: g.Name(), Gen: g, Priority: b.Priorities[i], BaseVA: workload.BaseVA})
	}
	cfg := exec.DefaultConfig()
	cfg.Cores = 2
	cfg.WarmFraction = -1 // every page starts on the device
	m, err := New(cfg, func() policy.Policy { return policy.New(policy.Sync) }, "steal", specs)
	if err != nil {
		t.Fatal(err)
	}
	s := m.s
	p := s.Procs[0]
	victim, thief := s.Cores[p.Owner], s.Cores[1]
	if victim == thief {
		t.Fatal("pid 0 is not owned by core 0")
	}

	// Both swap-ins start on the victim's clock. The thief steals just
	// after the first one's completion, which is then past on its clock
	// (too late to reschedule there); the second is issued after the
	// steal's context switch, so it is still in flight when the steal
	// returns.
	dueVA, lateVA := uint64(workload.BaseVA), uint64(workload.BaseVA+pagetable.PageSize)
	due := s.Krn.StartSwapIn(0, p.PID, dueVA, false)
	late := s.Krn.StartSwapIn(due.Done+kernel.ContextSwitchCost, p.PID, lateVA, false)
	victim.SchedulePendingIO(p, &exec.PendingIO{Page: dueVA, Frame: due.Frame, Done: due.Done})
	victim.SchedulePendingIO(p, &exec.PendingIO{Page: lateVA, Frame: late.Frame, Done: late.Done})

	m.steal(thief, p, due.Done+1)

	present := func(va uint64) bool {
		pte, ok := p.KP.AS.Lookup(va)
		return ok && pte.Present()
	}
	if p.Owner != thief.ID || victim.Eng.Pending() != 0 {
		t.Fatalf("after the steal: owner %d, %d events left on the victim; want owner %d and none", p.Owner, victim.Eng.Pending(), thief.ID)
	}
	if !present(dueVA) || s.Krn.DRAM().Frame(due.Frame).Pinned {
		t.Errorf("the due swap-in did not land during the steal: present %v, frame pinned %v", present(dueVA), s.Krn.DRAM().Frame(due.Frame).Pinned)
	}
	if len(p.Pending) != 1 || p.Pending[0].Page != lateVA {
		t.Fatalf("pending after the steal = %d entries, want only the later swap-in", len(p.Pending))
	}
	if present(lateVA) || thief.Eng.Now() >= late.Done || thief.Eng.Pending() != 1 {
		t.Fatalf("the later swap-in is not waiting on the thief: present %v, thief clock %v, due %v, thief events %d",
			present(lateVA), thief.Eng.Now(), late.Done, thief.Eng.Pending())
	}

	thief.Eng.RunUntilIdle()
	if !present(lateVA) || s.Krn.DRAM().Frame(late.Frame).Pinned || len(p.Pending) != 0 {
		t.Errorf("the later swap-in did not land on the thief: present %v, frame pinned %v, %d pending",
			present(lateVA), s.Krn.DRAM().Frame(late.Frame).Pinned, len(p.Pending))
	}
}
