package ivm

import (
	"strings"
	"testing"
)

// TestRecoverNamespacedValidatesOwnership: a namespaced checkpoint
// recovers only under its own namespace; a mismatch fails before any
// state is rebuilt, and RecoverChain adopts whatever namespace the chain
// carries.
func TestRecoverNamespacedValidatesOwnership(t *testing.T) {
	db := liveDB(t)
	m, err := New(db, paperView)
	if err != nil {
		t.Fatal(err)
	}
	wal := NewWAL()
	m.AttachWAL(wal)
	m.SetNamespace("eu/east")
	if got := m.Namespace(); got != "eu/east" {
		t.Fatalf("Namespace() = %q after SetNamespace", got)
	}
	applyN(t, m, 100, 4)
	cp := fullCheckpoint(t, m)

	// Matching namespace: recovery succeeds and the namespace survives.
	rec, err := RecoverChainNamespaced(db, paperView, "eu/east", cp, wal, nil)
	if err != nil {
		t.Fatalf("matching namespace: %v", err)
	}
	if got := rec.Namespace(); got != "eu/east" {
		t.Errorf("recovered namespace %q, want eu/east", got)
	}
	if got := pendingKey(rec); got != pendingKey(m) {
		t.Errorf("recovered pending %s, want %s", got, pendingKey(m))
	}

	// Foreign namespace: refused with both names in the error.
	if _, err := RecoverChainNamespaced(db, paperView, "us/east", cp, wal, nil); err == nil {
		t.Fatal("recovering another subscription's checkpoint succeeded")
	} else if !strings.Contains(err.Error(), "eu/east") || !strings.Contains(err.Error(), "us/east") {
		t.Errorf("mismatch error %q does not name both namespaces", err)
	}

	// RecoverChain accepts any checkpoint and preserves the recorded
	// namespace.
	rec2, err := RecoverChain(db, paperView, cp, wal)
	if err != nil {
		t.Fatalf("RecoverChain on namespaced checkpoint: %v", err)
	}
	if got := rec2.Namespace(); got != "eu/east" {
		t.Errorf("RecoverChain dropped the namespace: %q", got)
	}

	// An un-namespaced checkpoint recovers under the empty namespace.
	m2, err := New(liveDB(t), paperView)
	if err != nil {
		t.Fatal(err)
	}
	cp2 := fullCheckpoint(t, m2)
	if _, err := RecoverChainNamespaced(db, paperView, "", cp2, nil, nil); err != nil {
		t.Errorf("empty-namespace recovery: %v", err)
	}
	if _, err := RecoverChainNamespaced(db, paperView, "us/west", cp2, nil, nil); err == nil {
		t.Error("un-namespaced checkpoint recovered under a named namespace")
	}
}
