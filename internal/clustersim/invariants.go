package clustersim

import "fmt"

// invariants is the run-wide safety checker. Its terminal and worker
// books are fed by each node's jobs.Node hooks (Finished, Occupied) —
// the shipped lifecycle, not the simulator's bookkeeping — and it keeps
// its OWN record of which node computed or imported which artifact,
// never reading the nodes' cache maps. So a double settle, a serve the
// serving node never held, a probe wider than its fan-out, a revisiting
// admission chain or a node running more jobs than it has workers is
// caught when it happens. Violations are deterministic strings on the
// report; every shipped scenario must produce none.
type invariants struct {
	c *Cluster
	// terminal maps job id → how it reached its terminal account
	// ("completed", "rejected", "lost"). A second terminal transition
	// for the same job is the double-settle bug class.
	terminal map[string]string
	// results / warm are the shadow artifact books: which result keys
	// and which trace digests each node (by URL) has legitimately
	// computed or imported.
	results map[string]map[string]bool
	warm    map[string]map[string]bool
	// running is the shadow worker book: how many jobs each node (by
	// URL) is executing right now.
	running map[string]int
	// chains counts the admission chains recounted: one per arrival.
	chains int

	violations []string
}

// maxViolations bounds the report: one broken invariant tends to fire
// on every subsequent event, and a thousand copies of the same line
// help nobody.
const maxViolations = 20

func newInvariants(c *Cluster) *invariants {
	return &invariants{
		c:        c,
		terminal: make(map[string]string),
		results:  make(map[string]map[string]bool),
		warm:     make(map[string]map[string]bool),
		running:  make(map[string]int),
	}
}

func (v *invariants) violatef(format string, args ...any) {
	if len(v.violations) < maxViolations {
		v.violations = append(v.violations, fmt.Sprintf(format, args...))
	}
}

// terminalOnce records a job's terminal transition; a job must settle
// exactly once. ("Exactly once" rather than "at most once": the missing
// half — every job settles — is the accounting identity checked in
// finish.)
func (v *invariants) terminalOnce(id, how string) {
	if prior, ok := v.terminal[id]; ok {
		v.violatef("job %s settled twice: %s after %s (t=%d)", id, how, prior, v.c.now)
		return
	}
	v.terminal[id] = how
}

// jobStarted and jobStopped bracket one job's run on a worker (the
// node's Occupied hook): a node never runs more than Workers jobs
// at once. A crashed node's runs are never stopped, nor started.
func (v *invariants) jobStarted(n *node) {
	v.running[n.url]++
	if got := v.running[n.url]; got > v.c.cfg.Workers {
		v.violatef("%s runs %d jobs at once on %d workers (t=%d)", n.url, got, v.c.cfg.Workers, v.c.now)
	}
}

func (v *invariants) jobStopped(n *node) { v.running[n.url]-- }

func markSet(m map[string]map[string]bool, url, key string) {
	s := m[url]
	if s == nil {
		s = make(map[string]bool)
		m[url] = s
	}
	s[key] = true
}

// computedResult records that a node produced a result (and the warm
// trace artifacts under it) by actually running the job — or held it
// from the start, for pre-warmed nodes.
func (v *invariants) computedResult(n *node, key, digest string) {
	markSet(v.results, n.url, key)
	markSet(v.warm, n.url, digest)
}

// importedResult records a result adopted from a peer's cache.
func (v *invariants) importedResult(n *node, key string) {
	markSet(v.results, n.url, key)
}

// importedTable records a verdict table adopted from a peer's cache —
// which also makes the node a legitimate table server for the digest.
func (v *invariants) importedTable(n *node, digest string) {
	markSet(v.warm, n.url, digest)
}

// served checks one artifact delivery from→to: the serving node must
// hold the artifact in the shadow books, and the link must be up.
func (v *invariants) served(kind string, from, to *node, key string) {
	book := v.results
	if kind == "table" {
		book = v.warm
	}
	if !book[from.url][key] {
		v.violatef("%s %q served by %s which never computed or imported it (t=%d)",
			kind, key, from.url, v.c.now)
	}
	if !v.c.linkUp(from, to) {
		v.violatef("%s %q delivered %s→%s across a partitioned link (t=%d)",
			kind, key, from.url, to.url, v.c.now)
	}
}

// probeBound checks one job's probe session against the fan-out bound:
// each probe round (result, then table) may touch at most fanout peers.
func (v *invariants) probeBound(resultCalls, tableCalls, fanout int) {
	if fanout <= 0 {
		return
	}
	if resultCalls > fanout {
		v.violatef("result probe round touched %d peers, fan-out is %d (t=%d)",
			resultCalls, fanout, v.c.now)
	}
	if tableCalls > fanout {
		v.violatef("table probe round touched %d peers, fan-out is %d (t=%d)",
			tableCalls, fanout, v.c.now)
	}
}

// chainCheck independently re-counts one admission chain — it does not
// trust jobs.FollowRedirects' own visited set, which is exactly
// the code under test.
type chainCheck struct {
	v     *invariants
	jobID string
	seen  map[string]bool
	hops  int
}

func (v *invariants) chain(jobID string) *chainCheck {
	v.chains++
	return &chainCheck{v: v, jobID: jobID, seen: make(map[string]bool)}
}

// visit records one submit in the chain, flagging revisits and chains
// longer than the hop bound allows (origin + maxHops redirects).
func (cc *chainCheck) visit(base string, maxHops int) {
	if cc.seen[base] {
		cc.v.violatef("admission chain for %s revisited %s (t=%d)", cc.jobID, base, cc.v.c.now)
	}
	cc.seen[base] = true
	cc.hops++
	if cc.hops > maxHops+1 {
		cc.v.violatef("admission chain for %s reached %d submits, bound is %d (t=%d)",
			cc.jobID, cc.hops, maxHops+1, cc.v.c.now)
	}
}

// finish runs the end-of-run checks: the accounting identity (every
// generated job reached exactly one terminal account) and that the
// terminal book agrees with the counters.
func (v *invariants) finish(r *Report) {
	if got := r.Completed + r.Rejected + r.Lost + r.Unfinished; got != r.Jobs {
		v.violatef("accounting identity broken: completed+rejected+lost+unfinished = %d, jobs = %d", got, r.Jobs)
	}
	if settled := len(v.terminal); settled != r.Jobs-r.Unfinished {
		v.violatef("terminal book holds %d jobs, counters say %d settled", settled, r.Jobs-r.Unfinished)
	}
	r.Violations = v.violations
}
