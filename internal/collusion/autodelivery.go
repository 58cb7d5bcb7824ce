package collusion

// Premium auto-delivery (Sec. 5.1): paid plans "automatically provide
// likes without requiring users to manually login to collusion network
// sites for each request". The network holds the subscriber's token, so
// it can poll the member's feed through the Graph API and deliver likes
// to every fresh post.

// RunAutoDelivery polls every auto-delivery subscriber's feed and
// delivers their plan's like quota to posts it has not served yet. It
// returns the number of posts served. Callers drive it on their own
// cadence (the simulation's hourly loop).
func (n *Network) RunAutoDelivery() int {
	n.mu.Lock()
	type sub struct {
		accountID string
		plan      Plan
	}
	var subs []sub
	for id, plan := range n.premium {
		if plan.AutoDelivery && !n.banned[id] {
			subs = append(subs, sub{accountID: id, plan: plan})
		}
	}
	if n.autoServed == nil {
		n.autoServed = make(map[string]bool)
	}
	n.mu.Unlock()

	served := 0
	for _, s := range subs {
		token, ok := n.pool.Token(s.accountID)
		if !ok {
			continue // token lost; the member must resubmit
		}
		posts, err := n.client.FeedOf(token)
		if err != nil {
			continue // dead token or transient failure; retry next cycle
		}
		for _, p := range posts {
			n.mu.Lock()
			done := n.autoServed[p.ID]
			if !done {
				n.autoServed[p.ID] = true
			}
			n.mu.Unlock()
			if done {
				continue
			}
			quota := s.plan.LikesPerPost
			if quota <= 0 {
				quota = n.cfg.LikesPerRequest
			}
			ctx, span := n.obs.T().StartSpan(nil, "collusion.autodeliver")
			span.SetAttr("network", n.cfg.Name)
			span.SetAttr("subscriber", s.accountID)
			n.deliver(ctx, n.primary(), quota, s.accountID, p.ID, nil)
			span.End()
			served++
		}
	}
	return served
}

// AutoSubscribers reports how many members are on auto-delivery plans.
func (n *Network) AutoSubscribers() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	count := 0
	for _, plan := range n.premium {
		if plan.AutoDelivery {
			count++
		}
	}
	return count
}
