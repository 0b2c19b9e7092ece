package replica

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"xmlconflict/internal/faultinject"
)

// Membership operations. Every change flows through the live primary as
// one committed revision — join admits a learner, a caught-up learner
// is promoted to voter, leave removes a node (leave-of-self drains the
// primary itself) — persisted locally through the repl.member.commit
// fault site, then pushed to the peers both rosters name. The change is
// only reported successful once a majority of the NEW voter set holds
// it: that is the majority any future election must intersect, so a
// quorum-acked membership change survives any single crash the same way
// a quorum-acked write does. Shortfall is an honest error; the local
// commit stands and heartbeat anti-entropy keeps re-pushing.

// errMembersUnchanged marks an idempotent no-op change (already joined,
// already gone, already a voter).
var errMembersUnchanged = errors.New("replica: membership unchanged")

// membersRequest pushes a committed roster revision to one peer.
type membersRequest struct {
	Epoch   uint64      `json:"epoch"`
	Primary string      `json:"primary"`
	Members memberState `json:"members"`
}

// membersResponse reports the receiver's roster version after folding
// the push in. Accepted false means the sender's epoch was stale;
// Epoch/Primary then carry the newer claim (appendResponse-compatible,
// so rejectEpoch serves both).
type membersResponse struct {
	Accepted     bool   `json:"accepted"`
	Epoch        uint64 `json:"epoch"`
	Primary      string `json:"primary"`
	MembersEpoch uint64 `json:"members_epoch"`
	MembersRev   uint64 `json:"members_rev"`
}

// Roster is one committed membership revision.
type Roster struct {
	Epoch   uint64
	Rev     uint64
	Members []Member
}

// Join admits a node to the cluster as a non-voting learner. The node
// catches up from heartbeats and anti-entropy; the primary promotes it
// to voter automatically once its reported positions are within a few
// frames of the log head. Idempotent for an identical (id, url). It
// returns the committed revision that admitted the node (for a repeat
// join, the current one): later revisions, such as the promotion,
// cannot race it.
func (n *Node) Join(ctx context.Context, id, urlStr string) (Roster, error) {
	if id == "" || urlStr == "" {
		return Roster{}, fmt.Errorf("replica: join needs a node id and url")
	}
	ms, err := n.commitMembers(ctx, func(ms *memberState) error {
		if m, ok := ms.find(id); ok {
			if m.URL == urlStr {
				return errMembersUnchanged
			}
			return fmt.Errorf("replica: node %q is already a member at %s", id, m.URL)
		}
		ms.Members = append(ms.Members, Member{ID: id, URL: urlStr, Learner: true})
		return nil
	})
	if err != nil {
		return Roster{}, err
	}
	return Roster{Epoch: ms.Epoch, Rev: ms.Rev, Members: ms.clone().Members}, nil
}

// Leave removes a node from the committed membership. Removing the
// current primary (leave-of-self) drains it: the roster without it is
// committed and pushed, then the node stops heartbeating and refuses
// writes — the survivors detect the silence and elect under the smaller
// voter set. A removed node's data directory refuses to reopen; re-init
// fresh to rejoin. Idempotent for an id that is already gone.
func (n *Node) Leave(ctx context.Context, id string) error {
	if id == "" {
		return fmt.Errorf("replica: leave needs a node id")
	}
	_, err := n.commitMembers(ctx, func(ms *memberState) error {
		if _, ok := ms.find(id); !ok {
			return errMembersUnchanged
		}
		kept := make([]Member, 0, len(ms.Members)-1)
		for _, m := range ms.Members {
			if m.ID != id {
				kept = append(kept, m)
			}
		}
		ms.Members = kept
		return nil
	})
	return err
}

// PromoteVoter commits a learner→voter transition. Idempotent for a
// node that already votes.
func (n *Node) PromoteVoter(ctx context.Context, id string) error {
	_, err := n.commitMembers(ctx, func(ms *memberState) error {
		for i, m := range ms.Members {
			if m.ID == id {
				if !m.Learner {
					return errMembersUnchanged
				}
				ms.Members[i].Learner = false
				return nil
			}
		}
		return fmt.Errorf("replica: node %q is not a member", id)
	})
	return err
}

// commitMembers runs one membership change on the primary: bump Rev
// under the current epoch, persist locally (through the
// repl.member.commit site — the crash-drill boundary), then push the
// revision synchronously and require a majority of the NEW voter set
// (counting self when it votes) to hold it. It returns the committed
// revision — the current one when mutate reports no change.
func (n *Node) commitMembers(ctx context.Context, mutate func(*memberState) error) (memberState, error) {
	var epoch uint64
	var next memberState
	var targets []Peer
	err := func() error {
		n.mu.Lock()
		defer n.mu.Unlock()
		if n.role != RolePrimary || n.removed {
			return &NotPrimaryError{Primary: n.peerByIDLocked(n.primaryID), Epoch: n.epoch}
		}
		epoch = n.epoch
		prev := n.members
		next = prev.clone()
		next.Epoch = epoch
		next.Rev = prev.Rev + 1
		if err := mutate(&next); err != nil {
			if errors.Is(err, errMembersUnchanged) {
				next = prev.clone()
			}
			return err
		}
		if err := next.validate(); err != nil {
			return err
		}
		// The commit point: drills arm repl.member.commit to fail (or die)
		// between the decision and the durable write — whichever side of
		// the boundary a crash lands on, some majority can reconstruct a
		// single committed roster.
		if err := faultinject.Fire("repl.member.commit"); err != nil {
			return err
		}
		if err := saveMembers(n.dir, next); err != nil {
			n.m.Add("repl.member_commit_errors", 1)
			return err
		}
		n.members = next
		if _, present := next.find(n.self.ID); !present {
			// Leave-of-self: the drain point. The node stays answerable but
			// commits nothing new and stops heartbeating; the survivors
			// elect once the silence trips their detectors.
			n.removed = true
		}
		// Push to everyone either roster names: current members adopt the
		// revision, a removed peer learns it is gone.
		seen := map[string]bool{n.self.ID: true}
		for _, list := range [][]Member{next.Members, prev.Members} {
			for _, m := range list {
				if !seen[m.ID] {
					seen[m.ID] = true
					targets = append(targets, Peer{ID: m.ID, URL: m.URL})
				}
			}
		}
		return nil
	}()
	if errors.Is(err, errMembersUnchanged) {
		return next, nil
	}
	if err != nil {
		return memberState{}, err
	}
	n.m.Add("repl.member_commits", 1)

	pctx, cancel := context.WithTimeout(ctx, 2*n.opts.FailoverAfter)
	defer cancel()
	acked := 0
	if m, ok := next.find(n.self.ID); ok && !m.Learner {
		acked = 1
	}
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for _, p := range targets {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := n.contain(func() error { return n.pushMembersTo(pctx, p, epoch, next) })
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			if m, ok := next.find(p.ID); ok && !m.Learner {
				acked++
			}
		}()
	}
	wg.Wait()
	if need := next.voters()/2 + 1; acked < need {
		return memberState{}, fmt.Errorf("replica: membership rev %d committed locally but reached only %d of %d required voters (last: %v)", next.Rev, acked, need, firstErr)
	}
	return next, nil
}

// pushMembersTo ships the committed roster to one peer.
func (n *Node) pushMembersTo(ctx context.Context, p Peer, epoch uint64, ms memberState) error {
	var resp membersResponse
	if err := n.postPeer(ctx, p, "/v1/repl/members", membersRequest{Epoch: epoch, Primary: n.self.ID, Members: ms}, &resp); err != nil {
		return err
	}
	if !resp.Accepted || resp.Epoch != epoch {
		return n.fencedBy(resp.Epoch, resp.Primary)
	}
	return nil
}

// handleMembers installs a pushed roster revision: the sender's epoch
// must pass the fence, and the revision must be (Epoch, Rev)-newer than
// the committed one — a deposed primary can neither resurrect a removed
// peer nor roll a change back. A node absent from the installed roster
// marks itself removed on the spot.
func (n *Node) handleMembers(w http.ResponseWriter, r *http.Request) {
	if n.partitioned(w) {
		return
	}
	var req membersRequest
	if !decodeRepl(w, r, &req) {
		return
	}
	if err := req.Members.validate(); err != nil {
		replJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error(), "reason": "bad-request"})
		return
	}
	if !n.observeEpoch(req.Epoch, req.Primary) {
		n.rejectEpoch(w)
		return
	}
	n.touchPrimary(req.Primary, nil)
	var resp membersResponse
	err := func() error {
		n.mu.Lock()
		defer n.mu.Unlock()
		if req.Members.newer(n.members) {
			if err := faultinject.Fire("repl.member.commit"); err != nil {
				return err
			}
			if err := saveMembers(n.dir, req.Members); err != nil {
				n.m.Add("repl.member_commit_errors", 1)
				return err
			}
			n.members = req.Members.clone()
			// n.self stays fixed at its Open-time identity: it is read
			// lock-free on every request path, and a roster push cannot
			// change where this process listens anyway.
			_, present := req.Members.find(n.self.ID)
			n.removed = !present
			n.m.Add("repl.member_installs", 1)
		}
		resp = membersResponse{
			Accepted: true, Epoch: n.epoch, Primary: n.primaryID,
			MembersEpoch: n.members.Epoch, MembersRev: n.members.Rev,
		}
		return nil
	}()
	if err != nil {
		replJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error(), "reason": "member-commit-failed"})
		return
	}
	replJSON(w, http.StatusOK, resp)
}
