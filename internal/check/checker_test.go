package check

import (
	"errors"
	"testing"

	"mocha/internal/wire"
)

// seq numbers a hand-built history the way the recorder would.
func seq(evs []wire.HistoryEvent) []wire.HistoryEvent {
	for i := range evs {
		evs[i].Seq = uint64(i + 1)
	}
	return evs
}

var (
	tA = wire.MakeThreadID(1, 1)
	tB = wire.MakeThreadID(2, 1)
	tC = wire.MakeThreadID(3, 1)
)

// cleanPrefix is a well-formed history: creator seeds v1, thread A takes the
// lock at v1, publishes v2, releases; thread B (whose site applied v2) takes
// it at v2.
func cleanPrefix() []wire.HistoryEvent {
	return []wire.HistoryEvent{
		{Kind: wire.HistRegister, Site: 1, Lock: 9, Version: 1, Note: "creator",
			Digests: []wire.ReplicaDigest{{Name: "x", Sum: 0xa1}}},
		{Kind: wire.HistPublish, Site: 1, Lock: 9, Version: 1, Note: "create",
			Digests: []wire.ReplicaDigest{{Name: "x", Sum: 0xa1}}},
		{Kind: wire.HistAcquire, Site: 1, Thread: tA, Lock: 9},
		{Kind: wire.HistGrant, Site: 1, Thread: tA, Lock: 9, Version: 1,
			Flag: wire.VersionOK, Sites: wire.NewSiteSet(1)},
		{Kind: wire.HistObserve, Site: 1, Thread: tA, Lock: 9, Version: 1, AuxVersion: 1,
			Digests: []wire.ReplicaDigest{{Name: "x", Sum: 0xa1}}},
		{Kind: wire.HistPublish, Site: 1, Thread: tA, Lock: 9, Version: 2,
			Digests: []wire.ReplicaDigest{{Name: "x", Sum: 0xb2}}},
		{Kind: wire.HistApply, Site: 2, Lock: 9, Version: 2, Note: "push",
			Digests: []wire.ReplicaDigest{{Name: "x", Sum: 0xb2}}},
		{Kind: wire.HistRelease, Site: 1, Thread: tA, Lock: 9, Version: 2,
			Sites: wire.NewSiteSet(1, 2)},
		{Kind: wire.HistAcquire, Site: 2, Thread: tB, Lock: 9},
		{Kind: wire.HistGrant, Site: 2, Thread: tB, Lock: 9, Version: 2,
			Flag: wire.VersionOK, Sites: wire.NewSiteSet(1, 2)},
		{Kind: wire.HistObserve, Site: 2, Thread: tB, Lock: 9, Version: 2, AuxVersion: 2,
			Digests: []wire.ReplicaDigest{{Name: "x", Sum: 0xb2}}},
		{Kind: wire.HistRelease, Site: 2, Thread: tB, Lock: 9, Aborted: true},
	}
}

func TestCheckCleanHistory(t *testing.T) {
	if v := Check(seq(cleanPrefix())); v != nil {
		t.Fatalf("clean history flagged: %v", v)
	}
}

// expectViolation runs the checker and asserts the violation class.
func expectViolation(t *testing.T, evs []wire.HistoryEvent, want error) *Violation {
	t.Helper()
	v := Check(seq(evs))
	if v == nil {
		t.Fatalf("history not flagged, want %v", want)
	}
	if !errors.Is(v, want) {
		t.Fatalf("flagged %v, want %v", v, want)
	}
	if v.Error() == "" || len(v.Events) == 0 {
		t.Fatalf("violation carries no report: %#v", v)
	}
	return v
}

func TestCheckDualHolderExclusive(t *testing.T) {
	evs := []wire.HistoryEvent{
		{Kind: wire.HistAcquire, Site: 1, Thread: tA, Lock: 9},
		{Kind: wire.HistGrant, Site: 1, Thread: tA, Lock: 9},
		{Kind: wire.HistAcquire, Site: 2, Thread: tB, Lock: 9},
		{Kind: wire.HistGrant, Site: 2, Thread: tB, Lock: 9},
	}
	expectViolation(t, evs, ErrDualHolder)
}

func TestCheckDualHolderAgainstReader(t *testing.T) {
	evs := []wire.HistoryEvent{
		{Kind: wire.HistAcquire, Site: 1, Thread: tA, Lock: 9, Shared: true},
		{Kind: wire.HistGrant, Site: 1, Thread: tA, Lock: 9, Shared: true},
		{Kind: wire.HistAcquire, Site: 2, Thread: tB, Lock: 9},
		{Kind: wire.HistGrant, Site: 2, Thread: tB, Lock: 9},
	}
	expectViolation(t, evs, ErrDualHolder)
}

func TestCheckTwoReadersAllowed(t *testing.T) {
	evs := []wire.HistoryEvent{
		{Kind: wire.HistAcquire, Site: 1, Thread: tA, Lock: 9, Shared: true},
		{Kind: wire.HistGrant, Site: 1, Thread: tA, Lock: 9, Shared: true},
		{Kind: wire.HistAcquire, Site: 2, Thread: tB, Lock: 9, Shared: true},
		{Kind: wire.HistGrant, Site: 2, Thread: tB, Lock: 9, Shared: true},
		{Kind: wire.HistRelease, Site: 1, Thread: tA, Lock: 9, Shared: true},
		{Kind: wire.HistRelease, Site: 2, Thread: tB, Lock: 9, Shared: true},
	}
	if v := Check(seq(evs)); v != nil {
		t.Fatalf("concurrent readers flagged: %v", v)
	}
}

func TestCheckHolderQueued(t *testing.T) {
	evs := []wire.HistoryEvent{
		{Kind: wire.HistAcquire, Site: 1, Thread: tA, Lock: 9},
		{Kind: wire.HistGrant, Site: 1, Thread: tA, Lock: 9},
		{Kind: wire.HistAcquire, Site: 1, Thread: tA, Lock: 9},
	}
	expectViolation(t, evs, ErrHolderQueued)
}

func TestCheckOrphanGrant(t *testing.T) {
	evs := []wire.HistoryEvent{
		{Kind: wire.HistGrant, Site: 1, Thread: tA, Lock: 9},
	}
	expectViolation(t, evs, ErrOrphanGrant)

	// A revised grant must land on an existing hold.
	evs = []wire.HistoryEvent{
		{Kind: wire.HistGrant, Site: 1, Thread: tA, Lock: 9, Revised: true},
	}
	expectViolation(t, evs, ErrOrphanGrant)
}

func TestCheckVersionRegress(t *testing.T) {
	evs := append(cleanPrefix(),
		wire.HistoryEvent{Kind: wire.HistAcquire, Site: 3, Thread: tC, Lock: 9},
		wire.HistoryEvent{Kind: wire.HistGrant, Site: 3, Thread: tC, Lock: 9, Version: 2,
			Flag: wire.NeedNewVersion},
		wire.HistoryEvent{Kind: wire.HistRelease, Site: 3, Thread: tC, Lock: 9, Version: 2},
	)
	expectViolation(t, evs, ErrVersionRegress)
}

func TestCheckGrantVersion(t *testing.T) {
	evs := []wire.HistoryEvent{
		{Kind: wire.HistRegister, Site: 1, Lock: 9, Version: 1, Note: "creator"},
		{Kind: wire.HistAcquire, Site: 1, Thread: tA, Lock: 9},
		{Kind: wire.HistGrant, Site: 1, Thread: tA, Lock: 9, Version: 2},
	}
	expectViolation(t, evs, ErrGrantVersion)
}

func TestCheckFenceRegress(t *testing.T) {
	// A fresh grant reusing an already-issued token is flagged.
	evs := []wire.HistoryEvent{
		{Kind: wire.HistAcquire, Site: 1, Thread: tA, Lock: 9},
		{Kind: wire.HistGrant, Site: 1, Thread: tA, Lock: 9, AuxVersion: 7},
		{Kind: wire.HistRelease, Site: 1, Thread: tA, Lock: 9, Aborted: true},
		{Kind: wire.HistAcquire, Site: 2, Thread: tB, Lock: 9},
		{Kind: wire.HistGrant, Site: 2, Thread: tB, Lock: 9, AuxVersion: 7},
	}
	expectViolation(t, evs, ErrFenceRegress)

	// A revised grant shrinking its own hold's token is flagged.
	evs = []wire.HistoryEvent{
		{Kind: wire.HistAcquire, Site: 1, Thread: tA, Lock: 9},
		{Kind: wire.HistGrant, Site: 1, Thread: tA, Lock: 9, AuxVersion: 7},
		{Kind: wire.HistGrant, Site: 1, Thread: tA, Lock: 9, AuxVersion: 6, Revised: true},
	}
	expectViolation(t, evs, ErrFenceRegress)
}

func TestCheckFenceMonotoneAllowed(t *testing.T) {
	// Reader A re-issued (revised) with its own older token after reader B
	// minted a newer one is legitimate; so is a promotion-era jump.
	evs := []wire.HistoryEvent{
		{Kind: wire.HistAcquire, Site: 1, Thread: tA, Lock: 9, Shared: true},
		{Kind: wire.HistGrant, Site: 1, Thread: tA, Lock: 9, Shared: true, AuxVersion: 5},
		{Kind: wire.HistAcquire, Site: 2, Thread: tB, Lock: 9, Shared: true},
		{Kind: wire.HistGrant, Site: 2, Thread: tB, Lock: 9, Shared: true, AuxVersion: 6},
		{Kind: wire.HistGrant, Site: 1, Thread: tA, Lock: 9, Shared: true, AuxVersion: 5, Revised: true},
		{Kind: wire.HistGrant, Site: 1, Thread: tA, Lock: 9, Shared: true, AuxVersion: 1 << 32, Revised: true},
		{Kind: wire.HistRelease, Site: 1, Thread: tA, Lock: 9, Shared: true},
		{Kind: wire.HistRelease, Site: 2, Thread: tB, Lock: 9, Shared: true},
		{Kind: wire.HistAcquire, Site: 3, Thread: tC, Lock: 9},
		{Kind: wire.HistGrant, Site: 3, Thread: tC, Lock: 9, AuxVersion: 1<<32 | 1},
	}
	if v := Check(seq(evs)); v != nil {
		t.Fatalf("monotone fence history flagged: %v", v)
	}
}

func TestCheckStaleRead(t *testing.T) {
	// Site 3 installs v2 bytes that differ from what the release published.
	evs := append(cleanPrefix(),
		wire.HistoryEvent{Kind: wire.HistApply, Site: 3, Lock: 9, Version: 2, Note: "transfer",
			Digests: []wire.ReplicaDigest{{Name: "x", Sum: 0xdead}}},
	)
	expectViolation(t, evs, ErrStaleRead)
}

func TestCheckStaleObserve(t *testing.T) {
	// Thread C enters the lock at v2 on a site the history shows receiving
	// v2, but its bytes differ from the version's published bytes.
	evs := append(cleanPrefix(),
		wire.HistoryEvent{Kind: wire.HistAcquire, Site: 2, Thread: tC, Lock: 9},
		wire.HistoryEvent{Kind: wire.HistGrant, Site: 2, Thread: tC, Lock: 9, Version: 2,
			Flag: wire.VersionOK, Sites: wire.NewSiteSet(1, 2)},
		wire.HistoryEvent{Kind: wire.HistObserve, Site: 2, Thread: tC, Lock: 9, Version: 2, AuxVersion: 2,
			Digests: []wire.ReplicaDigest{{Name: "x", Sum: 0xbeef}}},
	)
	expectViolation(t, evs, ErrStaleRead)
}

func TestCheckObserveBelowGrantVersion(t *testing.T) {
	evs := []wire.HistoryEvent{
		{Kind: wire.HistObserve, Site: 2, Thread: tB, Lock: 9, Version: 1, AuxVersion: 2},
	}
	expectViolation(t, evs, ErrStaleRead)
}

func TestCheckUpToDateOverclaim(t *testing.T) {
	// The grant claims site 2 is up to date at v1, but no transfer, push, or
	// publish ever landed v1's bytes there.
	evs := []wire.HistoryEvent{
		{Kind: wire.HistRegister, Site: 1, Lock: 9, Version: 1, Note: "creator"},
		{Kind: wire.HistAcquire, Site: 1, Thread: tA, Lock: 9},
		{Kind: wire.HistGrant, Site: 1, Thread: tA, Lock: 9, Version: 1,
			Flag: wire.VersionOK, Sites: wire.NewSiteSet(1, 2)},
	}
	expectViolation(t, evs, ErrUpToDateOverclaim)
}

func TestCheckReleaseOverclaim(t *testing.T) {
	evs := []wire.HistoryEvent{
		{Kind: wire.HistAcquire, Site: 1, Thread: tA, Lock: 9},
		{Kind: wire.HistGrant, Site: 1, Thread: tA, Lock: 9},
		{Kind: wire.HistRelease, Site: 1, Thread: tA, Lock: 9, Version: 1,
			Sites: wire.NewSiteSet(1, 4)},
	}
	expectViolation(t, evs, ErrUpToDateOverclaim)
}

func TestCheckBannedRegrant(t *testing.T) {
	evs := []wire.HistoryEvent{
		{Kind: wire.HistBan, Thread: tA, Note: "lease expired"},
		{Kind: wire.HistAcquire, Site: 1, Thread: tA, Lock: 9},
		{Kind: wire.HistGrant, Site: 1, Thread: tA, Lock: 9},
	}
	expectViolation(t, evs, ErrBannedRegrant)
}

func TestCheckAcquireBeforeBanAllowed(t *testing.T) {
	// A grant for a request queued BEFORE the ban is legitimate: the ban
	// only refuses later requests.
	evs := []wire.HistoryEvent{
		{Kind: wire.HistAcquire, Site: 1, Thread: tA, Lock: 9},
		{Kind: wire.HistBan, Thread: tA, Note: "lease expired"},
		{Kind: wire.HistGrant, Site: 1, Thread: tA, Lock: 9},
	}
	if v := Check(seq(evs)); v != nil {
		t.Fatalf("pre-ban grant flagged: %v", v)
	}
}

func TestCheckBreakClearsHold(t *testing.T) {
	evs := []wire.HistoryEvent{
		{Kind: wire.HistAcquire, Site: 1, Thread: tA, Lock: 9},
		{Kind: wire.HistGrant, Site: 1, Thread: tA, Lock: 9},
		{Kind: wire.HistBreak, Site: 1, Thread: tA, Lock: 9},
		{Kind: wire.HistAcquire, Site: 2, Thread: tB, Lock: 9},
		{Kind: wire.HistGrant, Site: 2, Thread: tB, Lock: 9},
	}
	if v := Check(seq(evs)); v != nil {
		t.Fatalf("post-break grant flagged: %v", v)
	}
}

func TestCheckOrphanPublishIsWeak(t *testing.T) {
	// A holder whose lease was broken still unlocks locally and publishes
	// v2; the synchronization thread ignores its release. The real v2 comes
	// from thread B with different bytes — no violation.
	evs := []wire.HistoryEvent{
		{Kind: wire.HistAcquire, Site: 1, Thread: tA, Lock: 9},
		{Kind: wire.HistGrant, Site: 1, Thread: tA, Lock: 9},
		{Kind: wire.HistBreak, Site: 1, Thread: tA, Lock: 9},
		{Kind: wire.HistPublish, Site: 1, Thread: tA, Lock: 9, Version: 1,
			Digests: []wire.ReplicaDigest{{Name: "x", Sum: 0x1}}},
		{Kind: wire.HistAcquire, Site: 2, Thread: tB, Lock: 9},
		{Kind: wire.HistGrant, Site: 2, Thread: tB, Lock: 9},
		{Kind: wire.HistPublish, Site: 2, Thread: tB, Lock: 9, Version: 1,
			Digests: []wire.ReplicaDigest{{Name: "x", Sum: 0x2}}},
		{Kind: wire.HistRelease, Site: 2, Thread: tB, Lock: 9, Version: 1,
			Sites: wire.NewSiteSet(2)},
	}
	if v := Check(seq(evs)); v != nil {
		t.Fatalf("orphan publish flagged: %v", v)
	}
}

func TestCheckRecoveryRebaseline(t *testing.T) {
	// v2 was committed but every copy died; polling finds v1 at site 2, and
	// the next grant carries v1 with fresh bytes reissued as v2 later.
	evs := append(cleanPrefix(),
		wire.HistoryEvent{Kind: wire.HistRecover, Site: 2, Lock: 9, Version: 1, Note: "poll-best"},
		wire.HistoryEvent{Kind: wire.HistAcquire, Site: 2, Thread: tC, Lock: 9},
		wire.HistoryEvent{Kind: wire.HistGrant, Site: 2, Thread: tC, Lock: 9, Version: 1,
			Flag: wire.NeedNewVersion, Revised: false, Sites: wire.NewSiteSet(2)},
		wire.HistoryEvent{Kind: wire.HistPublish, Site: 2, Thread: tC, Lock: 9, Version: 2,
			Digests: []wire.ReplicaDigest{{Name: "x", Sum: 0xcc}}},
		wire.HistoryEvent{Kind: wire.HistRelease, Site: 2, Thread: tC, Lock: 9, Version: 2,
			Sites: wire.NewSiteSet(2)},
	)
	// The pre-recovery site 2 knows v1 via its apply? No: site 2 applied v2.
	// The poll-best verdict itself establishes site 2 at v1.
	if v := Check(seq(evs)); v != nil {
		t.Fatalf("recovery rebaseline flagged: %v", v)
	}
}

func TestCheckWeakenedLocalRedefines(t *testing.T) {
	// All copies lost; the grantee proceeds with local state, redefining the
	// committed version's bytes.
	evs := append(cleanPrefix(),
		wire.HistoryEvent{Kind: wire.HistRecover, Site: 3, Lock: 9, Version: 2, Note: "weakened-local"},
		wire.HistoryEvent{Kind: wire.HistAcquire, Site: 3, Thread: tC, Lock: 9},
		wire.HistoryEvent{Kind: wire.HistGrant, Site: 3, Thread: tC, Lock: 9, Version: 2,
			Flag: wire.VersionOK, Sites: wire.NewSiteSet(3)},
		wire.HistoryEvent{Kind: wire.HistObserve, Site: 3, Thread: tC, Lock: 9, Version: 2, AuxVersion: 2,
			Digests: []wire.ReplicaDigest{{Name: "x", Sum: 0x77}}},
	)
	if v := Check(seq(evs)); v != nil {
		t.Fatalf("weakened-local history flagged: %v", v)
	}
}
