package jobs

import (
	"fmt"
	"strings"
)

// SubmitHops bounds how many Retry-Peer admission redirects one submit
// follows: peerclient.Client.Submit passes it, and so does the policy
// lab's simulated client.
const SubmitHops = 3

// SubmitReply is one node's answer to an admission submit.
type SubmitReply struct {
	// ID is the accepted job's id; non-empty means the node took the
	// job and Reject is nil.
	ID string
	// RetryPeer, on a queue-full rejection, names the peer the node
	// believes has room (the Retry-Peer header). Adapters must leave it
	// empty for rejections that are not retryable elsewhere.
	RetryPeer string
	// Reject is why a reachable node turned the job away (nil when
	// accepted). Transport-level failures travel on the SubmitFunc's
	// error return instead.
	Reject error
}

// SubmitFunc submits one job spec (held by the closure) to one node:
// the client's side of admission, not a Peer call, since its callers
// (peerclient's Submit, the policy lab's client) send different bodies.
// The error return is transport-level (unreachable peer, un-decodable
// accept); a reachable node that rejects reports why in
// SubmitReply.Reject.
type SubmitFunc func(base string) (SubmitReply, error)

// FollowRedirects drives the steal-aware admission chain: submit to
// base, and when a full node answers with a Retry-Peer, retry there —
// at most maxHops redirects, each base visited at most once, so a
// cluster of mutually-full nodes answers a bounded chain of rejections
// instead of bouncing the client forever. Trailing slashes are trimmed
// before bases are compared or revisited, matching how peers name each
// other. It returns the job id and the base that accepted it — the node
// to poll for the result, which under redirection is not necessarily
// the one submitted to.
func FollowRedirects(submit SubmitFunc, base string, maxHops int) (id, acceptedBase string, err error) {
	base = strings.TrimRight(base, "/")
	visited := make(map[string]bool, maxHops+1)
	for hop := 0; ; hop++ {
		visited[base] = true
		reply, err := submit(base)
		if err != nil {
			return "", "", err
		}
		if reply.Reject == nil {
			return reply.ID, base, nil
		}
		retry := strings.TrimRight(reply.RetryPeer, "/")
		switch {
		case retry == "":
			return "", "", reply.Reject
		case visited[retry]:
			return "", "", fmt.Errorf("%w (Retry-Peer loop back to %s)", reply.Reject, retry)
		case hop >= maxHops:
			return "", "", fmt.Errorf("%w (gave up after %d Retry-Peer hops)", reply.Reject, hop)
		}
		base = retry
	}
}
