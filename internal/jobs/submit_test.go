package jobs

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// fakeAdmission scripts a cluster of nodes for FollowRedirects: each
// node either accepts, rejects with an optional Retry-Peer, or is dead
// (transport error).
type fakeAdmission struct {
	accept map[string]string // base -> job id
	retry  map[string]string // base -> Retry-Peer on queue-full
	dead   map[string]bool
	visits []string
}

func (f *fakeAdmission) submit(base string) (SubmitReply, error) {
	f.visits = append(f.visits, base)
	switch {
	case f.dead[base]:
		return SubmitReply{}, fmt.Errorf("submit to %s: dial: connection refused", base)
	case f.accept[base] != "":
		return SubmitReply{ID: f.accept[base]}, nil
	default:
		return SubmitReply{
			RetryPeer: f.retry[base],
			Reject:    fmt.Errorf("queue full at %s", base),
		}, nil
	}
}

func TestFollowRedirects(t *testing.T) {
	cases := []struct {
		name       string
		cluster    fakeAdmission
		base       string
		maxHops    int
		wantID     string
		wantBase   string
		wantErr    string // substring; empty means success
		wantVisits []string
	}{
		{
			name:       "immediate accept",
			cluster:    fakeAdmission{accept: map[string]string{"n1": "job-1"}},
			base:       "n1",
			maxHops:    3,
			wantID:     "job-1",
			wantBase:   "n1",
			wantVisits: []string{"n1"},
		},
		{
			name: "one redirect then accept",
			cluster: fakeAdmission{
				retry:  map[string]string{"n1": "n2"},
				accept: map[string]string{"n2": "job-2"},
			},
			base:       "n1",
			maxHops:    3,
			wantID:     "job-2",
			wantBase:   "n2",
			wantVisits: []string{"n1", "n2"},
		},
		{
			name: "hop exhaustion across a saturated chain",
			cluster: fakeAdmission{
				retry: map[string]string{"n1": "n2", "n2": "n3", "n3": "n4", "n4": "n5"},
			},
			base:       "n1",
			maxHops:    3,
			wantErr:    "gave up after 3 Retry-Peer hops",
			wantVisits: []string{"n1", "n2", "n3", "n4"},
		},
		{
			name: "visited-set breaks a redirect loop",
			cluster: fakeAdmission{
				retry: map[string]string{"n1": "n2", "n2": "n1"},
			},
			base:       "n1",
			maxHops:    5,
			wantErr:    "Retry-Peer loop back to n1",
			wantVisits: []string{"n1", "n2"},
		},
		{
			name: "redirect to a dead node is a transport error, not a rejection",
			cluster: fakeAdmission{
				retry: map[string]string{"n1": "n2"},
				dead:  map[string]bool{"n2": true},
			},
			base:       "n1",
			maxHops:    3,
			wantErr:    "dial: connection refused",
			wantVisits: []string{"n1", "n2"},
		},
		{
			name: "trailing slashes normalized before loop detection",
			cluster: fakeAdmission{
				retry: map[string]string{"n1": "n1/"},
			},
			base:       "n1/",
			maxHops:    3,
			wantErr:    "Retry-Peer loop back to n1",
			wantVisits: []string{"n1"},
		},
		{
			name: "rejection without a retry peer is terminal",
			cluster: fakeAdmission{
				retry: map[string]string{},
			},
			base:       "n1",
			maxHops:    3,
			wantErr:    "queue full at n1",
			wantVisits: []string{"n1"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			id, base, err := FollowRedirects(tc.cluster.submit, tc.base, tc.maxHops)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
				}
			} else {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if id != tc.wantID || base != tc.wantBase {
					t.Fatalf("accepted (%q, %q), want (%q, %q)", id, base, tc.wantID, tc.wantBase)
				}
			}
			if !reflect.DeepEqual(tc.cluster.visits, tc.wantVisits) {
				t.Fatalf("visited %v, want %v", tc.cluster.visits, tc.wantVisits)
			}
		})
	}
}

func TestFollowRedirectsKeepsRejectionUnwrappable(t *testing.T) {
	sentinel := errors.New("queue full")
	submit := func(base string) (SubmitReply, error) {
		return SubmitReply{RetryPeer: "n2", Reject: fmt.Errorf("%w at %s", sentinel, base)}, nil
	}
	_, _, err := FollowRedirects(submit, "n1", 0)
	if !errors.Is(err, sentinel) {
		t.Fatalf("hop-exhaustion wrap lost the rejection cause: %v", err)
	}
}
