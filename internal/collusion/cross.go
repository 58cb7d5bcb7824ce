package collusion

import (
	"fmt"

	"repro/internal/platform"
)

// Cross-platform operation. The paper's collusion networks live on one
// platform because that platform's implicit flow leaks tokens through the
// redirect fragment. A platform that only offers the authorization-code
// flow cannot be milked that way — but a collusion network that registers
// its own companion application there can still pool credentials: members
// walk the companion app's dialog, the redirect hands them a one-time
// code, they paste the code into the network's site, and the network
// exchanges it server-side with its app secret. Harvest on platform A,
// amplify on platform B.

// ErrUnknownPlatform is returned for operations naming a platform the
// network has not linked.
var ErrUnknownPlatform = fmt.Errorf("collusion: platform not linked")

// ErrBadCode is returned when a submitted authorization code fails the
// server-side exchange or verification.
var ErrBadCode = fmt.Errorf("collusion: authorization code did not exchange")

// crossBinding is one linked companion platform: the network's app
// credentials there, the transport, and a dedicated token pool. Pools are
// strictly per platform — a token minted by B is never fired at A.
type crossBinding struct {
	target
	appID       string
	appSecret   string
	redirectURI string
}

// LinkPlatform registers a companion platform under name. client is the
// transport to that platform, through which the network swaps submitted
// codes for tokens. appID/appSecret/redirectURI identify the network's
// own companion application registered on that platform.
func (n *Network) LinkPlatform(name string, client platform.Client, appID, appSecret, redirectURI string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.cross == nil {
		n.cross = make(map[string]*crossBinding, 1)
	}
	n.cross[name] = &crossBinding{
		target:      target{name: name, client: client, pool: NewTokenPool(), cross: true},
		appID:       appID,
		appSecret:   appSecret,
		redirectURI: redirectURI,
	}
}

// binding looks up a linked platform. Callers must not hold n.mu.
func (n *Network) binding(name string) (*crossBinding, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	b, ok := n.cross[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownPlatform, name)
	}
	return b, nil
}

// SubmitLinkedCode is the cross-platform analogue of SubmitToken: the
// member pastes the one-time authorization code from the companion app's
// redirect, the network exchanges it with its app secret, verifies the
// resulting token with a /me call, and pools it for that platform.
func (n *Network) SubmitLinkedCode(platformName, accountID, code string) error {
	now := n.clock.Now()
	if n.down(now) {
		return ErrOutage
	}
	if n.Banned(accountID) {
		return ErrBanned
	}
	b, err := n.binding(platformName)
	if err != nil {
		return err
	}
	token, err := b.client.ExchangeCode(b.appID, b.appSecret, b.redirectURI, code)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadCode, err)
	}
	profile, err := b.client.Me(token, n.pickIP())
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadToken, err)
	}
	if profile.ID != accountID {
		return fmt.Errorf("%w: token belongs to %s", ErrBadToken, profile.ID)
	}
	b.pool.Put(accountID, token)
	n.mu.Lock()
	n.stats.CrossTokensCollected++
	n.mu.Unlock()
	return nil
}

// RequestCrossLikes delivers likes to the member's post on a linked
// platform, sampling that platform's pool through that platform's
// transport. Site rules (membership, CAPTCHA, daily limits, ad wall) are
// enforced against the member's primary-platform standing — the site is
// one site; only the delivery surface changes.
func (n *Network) RequestCrossLikes(platformName, accountID, postID, captchaAnswer string) (int, error) {
	b, err := n.binding(platformName)
	if err != nil {
		return 0, err
	}
	if err := n.checkSiteRules(accountID, captchaAnswer); err != nil {
		return 0, err
	}
	n.mu.Lock()
	n.stats.CrossLikeRequests++
	n.mu.Unlock()
	return n.deliver(nil, b.target, n.likesFor(accountID), accountID, postID, nil), nil
}
