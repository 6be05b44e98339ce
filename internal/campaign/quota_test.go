package campaign

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestTenantDiskQuota(t *testing.T) {
	// The server is never started: every campaign stays queued, so the
	// accounting under test is pure reservation arithmetic — charge on
	// Submit, release on Cancel — with no runner racing it.
	spec := e2eSpec()
	one := estimateSpecBytes(spec)
	srv, err := Open(t.TempDir(), Config{TenantDiskBytes: one + one/2})
	if err != nil {
		t.Fatal(err)
	}
	killAtCleanup(t, srv)

	first, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.TenantDiskUsage("default"); got != one {
		t.Fatalf("usage after one submit = %d, want the %d-byte reservation", got, one)
	}

	// A second campaign would exceed the cap: refused with the typed
	// sentinel, nothing persisted, usage unmoved.
	if _, err := srv.Submit(spec); !errors.Is(err, ErrDiskQuota) {
		t.Fatalf("over-cap submit: got %v, want ErrDiskQuota", err)
	}
	if got := srv.TenantDiskUsage("default"); got != one {
		t.Fatalf("refused submit moved usage to %d", got)
	}

	// The cap is per tenant: another tenant with the same spec is admitted.
	other := spec
	other.Tenant = "other"
	if _, err := srv.Submit(other); err != nil {
		t.Fatalf("other tenant refused: %v", err)
	}

	// Over HTTP the refusal is 429 with a Retry-After hint, same as the
	// campaign-count quota.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp := postSpec(t, ts.URL, spec)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap HTTP submit: %s, want 429", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After")
	}

	// Cancelling the queued campaign releases its whole reservation, and
	// the tenant can submit again.
	if _, err := srv.Cancel(first.ID); err != nil {
		t.Fatal(err)
	}
	if got := srv.TenantDiskUsage("default"); got != 0 {
		t.Fatalf("usage after cancel = %d, want 0", got)
	}
	if _, err := srv.Submit(spec); err != nil {
		t.Fatalf("submit after cancel refused: %v", err)
	}
}

func TestTenantDiskQuotaSurvivesReopen(t *testing.T) {
	// After a restart, Open re-measures the bytes each non-cancelled
	// campaign actually holds on disk and rebuilds the tenant ledger from
	// that, so a crashed server cannot leak quota.
	dir := t.TempDir()
	spec := e2eSpec()
	srv, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	srv.Kill()
	stopServer(t, srv)

	srv2, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	killAtCleanup(t, srv2)
	want := dirBytes(srv2.Store().Dir(c.ID))
	if want == 0 {
		t.Fatal("queued campaign left nothing on disk")
	}
	if got := srv2.TenantDiskUsage("default"); got != want {
		t.Fatalf("reopened usage = %d, directory holds %d", got, want)
	}
}
