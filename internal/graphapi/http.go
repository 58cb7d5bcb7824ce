package graphapi

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/oauthsim"
	"repro/internal/provider"
)

// NormalizeEndpoint collapses object IDs out of a request path so HTTP
// metric labels stay bounded: /p123/likes becomes /{object}/likes. Fixed
// routes pass through unchanged; anything unrecognized becomes /{other}.
func NormalizeEndpoint(path string) string {
	switch path {
	case "/dialog/oauth", "/oauth/access_token", "/me", "/me/feed",
		"/me/friends", "/batch":
		return path
	}
	if _, edge, ok := splitEdge(path); ok {
		switch edge {
		case "likes":
			return "/{object}/likes"
		case "comments":
			return "/{object}/comments"
		}
	}
	return "/{other}"
}

// splitEdge splits an /{object}/{edge} path; ok is false unless the path,
// slashes trimmed, has exactly two segments.
func splitEdge(path string) (object, edge string, ok bool) {
	object, edge, ok = strings.Cut(strings.Trim(path, "/"), "/")
	return object, edge, ok && !strings.Contains(edge, "/")
}

// firstHop is the client address an X-Forwarded-For value names first.
func firstHop(fwd string) string {
	hop, _, _ := strings.Cut(fwd, ",")
	return strings.TrimSpace(hop)
}

// Edge pagination, Facebook-style: list responses carry at most `limit`
// entries (default 25, max 100) plus a paging envelope with an opaque
// `after` cursor when more data exists.
const (
	defaultPageLimit = 25
	maxPageLimit     = 100
)

// appendCursor appends offset as an opaque cursor string. The URL-safe
// base64 alphabet needs no escaping inside a JSON string.
func appendCursor(b []byte, offset int) []byte {
	var digits [20]byte
	return base64.URLEncoding.AppendEncode(b, strconv.AppendInt(digits[:0], int64(offset), 10))
}

// decodeCursor unwraps a cursor; empty cursors mean offset 0.
func decodeCursor(s string) (int, error) {
	if s == "" {
		return 0, nil
	}
	raw, err := base64.URLEncoding.DecodeString(s)
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(string(raw))
	if err != nil || n < 0 {
		return 0, errors.New("bad cursor")
	}
	return n, nil
}

// pageParams extracts limit and offset from a request.
func pageParams(r *http.Request) (limit, offset int, err error) {
	limit = defaultPageLimit
	if s := r.FormValue("limit"); s != "" {
		n, perr := strconv.Atoi(s)
		if perr != nil || n <= 0 {
			return 0, 0, errors.New("bad limit")
		}
		if n > maxPageLimit {
			n = maxPageLimit
		}
		limit = n
	}
	offset, err = decodeCursor(r.FormValue("after"))
	return limit, offset, err
}

// Handler exposes the API and the OAuth endpoints over HTTP with
// Facebook-style routes:
//
//	GET  /dialog/oauth          authorization dialog (browser session is
//	                            simulated with the account_id parameter)
//	POST /oauth/access_token    code-for-token exchange (server-side flow)
//	GET  /me                    profile of the token's account
//	GET  /{object}/likes        list likes
//	POST /{object}/likes        publish a like
//	POST /{object}/comments     publish a comment
//	POST /me/feed               publish a status update
//	POST /batch                 up to MaxBatchOps likes on one object
//
// Another method on an object edge, /me/feed or /batch is refused with
// 400; an unknown path or edge answers 404. Errors are returned as
// Facebook-style JSON envelopes:
//
//	{"error": {"message": ..., "type": ..., "code": ...}}
func Handler(api *API) http.Handler {
	mux := http.NewServeMux()
	h := &httpAPI{api: api}
	mux.HandleFunc("/dialog/oauth", h.dialog)
	mux.HandleFunc("/oauth/access_token", h.exchange)
	mux.HandleFunc("/me", h.me)
	mux.HandleFunc("/me/feed", h.feed)
	mux.HandleFunc("/me/friends", h.friends)
	mux.HandleFunc("/batch", h.batch)
	mux.HandleFunc("/", h.object)
	return mux
}

type httpAPI struct {
	api *API
}

func (h *httpAPI) writeError(w http.ResponseWriter, err error) {
	ae := h.asAPIError(err)
	bp := encodeBufs.Get().(*[]byte)
	sendRendered(w, httpStatus(ae.Kind), bp, appendErrorEnvelope((*bp)[:0], ae))
}

// asAPIError coerces err into the serving provider's error vocabulary;
// non-API errors surface as invalid-param in that vocabulary.
func (h *httpAPI) asAPIError(err error) *APIError {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae
	}
	out, _ := h.api.err(provider.KindInvalidParam, "GraphMethodException", "%v", err).(*APIError)
	return out
}

// httpStatus maps the canonical error kind to an HTTP status. Dispatching
// on the kind (not the numeric code) keeps the status map correct for
// every provider's numeric space.
func httpStatus(k provider.ErrKind) int {
	switch k {
	case provider.KindInvalidToken, provider.KindAppSuspended:
		return http.StatusUnauthorized
	case provider.KindSecretProof, provider.KindPermission, provider.KindBlocked:
		return http.StatusForbidden
	case provider.KindRateLimited:
		return http.StatusTooManyRequests
	case provider.KindNotFound:
		return http.StatusNotFound
	default:
		return http.StatusBadRequest
	}
}

// writeJSON encodes the rarer response shapes through encoding/json; the
// hot ones are rendered (see render.go).
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// callContext extracts token, proof, and source IP from the request. The
// simulated source IP is carried in X-Forwarded-For (collusion network
// delivery engines route through their IP pools); it falls back to the TCP
// peer address.
func callContext(r *http.Request) CallContext {
	ctx := CallContext{
		Ctx:            r.Context(),
		AccessToken:    r.FormValue("access_token"),
		AppSecretProof: r.FormValue("appsecret_proof"),
	}
	if fwd := r.Header.Get("X-Forwarded-For"); fwd != "" {
		ctx.SourceIP = firstHop(fwd)
	} else if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		ctx.SourceIP = host
	} else {
		ctx.SourceIP = r.RemoteAddr
	}
	return ctx
}

// dialog implements the authorization dialog. A real browser session is
// out of scope, so the logged-in user is identified by the account_id
// parameter. On success the handler 302-redirects to the app's redirect
// URI with the token in the fragment (implicit) or the code in the query
// (server-side) — exactly the artifact collusion networks teach their
// members to copy.
func (h *httpAPI) dialog(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	req := oauthsim.AuthorizeRequest{
		AppID:        q.Get("client_id"),
		RedirectURI:  q.Get("redirect_uri"),
		ResponseType: oauthsim.ResponseType(q.Get("response_type")),
		AccountID:    q.Get("account_id"),
		State:        q.Get("state"),
	}
	if scope := q.Get("scope"); scope != "" {
		req.Scopes = strings.Split(scope, ",")
	}
	res, err := h.api.OAuth().Authorize(req)
	if err != nil {
		h.writeError(w, h.api.err(provider.KindInvalidParam, "OAuthException", "%v", err))
		return
	}
	loc, err := url.Parse(req.RedirectURI)
	if err != nil {
		h.writeError(w, h.api.err(provider.KindInvalidParam, "OAuthException", "bad redirect URI"))
		return
	}
	if res.AccessToken != "" {
		frag := url.Values{}
		frag.Set("access_token", res.AccessToken)
		frag.Set("expires_in", strconv.FormatInt(res.ExpiresIn, 10))
		if res.State != "" {
			frag.Set("state", res.State)
		}
		loc.Fragment = frag.Encode()
	} else {
		qs := loc.Query()
		qs.Set("code", res.Code)
		if res.State != "" {
			qs.Set("state", res.State)
		}
		loc.RawQuery = qs.Encode()
	}
	http.Redirect(w, r, loc.String(), http.StatusFound)
}

// exchange implements the server-side token endpoint: the authorization-
// code swap.
func (h *httpAPI) exchange(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost && r.Method != http.MethodGet {
		h.writeError(w, h.api.err(provider.KindInvalidParam, "GraphMethodException", "unsupported method"))
		return
	}
	info, err := h.api.OAuth().ExchangeCode(
		r.FormValue("client_id"),
		r.FormValue("client_secret"),
		r.FormValue("redirect_uri"),
		r.FormValue("code"),
	)
	if err != nil {
		h.writeError(w, h.api.err(provider.KindInvalidToken, "OAuthException", "%v", err))
		return
	}
	writeJSON(w, map[string]any{
		"access_token": info.Token,
		"token_type":   "bearer",
		"expires_in":   int64(info.ExpiresAt.Sub(info.IssuedAt).Seconds()),
	})
}

func (h *httpAPI) me(w http.ResponseWriter, r *http.Request) {
	acct, err := h.api.Me(callContext(r))
	if err != nil {
		h.writeError(w, err)
		return
	}
	writeJSON(w, map[string]any{
		"id":      acct.ID,
		"name":    acct.Name,
		"country": acct.Country,
	})
}

func (h *httpAPI) friends(w http.ResponseWriter, r *http.Request) {
	friends, err := h.api.Friends(callContext(r))
	if err != nil {
		h.writeError(w, err)
		return
	}
	data := make([]map[string]any, 0, len(friends))
	for _, f := range friends {
		data = append(data, map[string]any{
			"id":      f.ID,
			"name":    f.Name,
			"country": f.Country,
		})
	}
	writeJSON(w, map[string]any{"data": data})
}

// feed publishes a status update on the token account's timeline.
func (h *httpAPI) feed(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		h.writeError(w, h.api.err(provider.KindInvalidParam, "GraphMethodException", "POST required"))
		return
	}
	post, err := h.api.Publish(callContext(r), r.FormValue("message"))
	if err != nil {
		h.writeError(w, err)
		return
	}
	writeJSON(w, map[string]any{"id": post.ID})
}

// batchOp is one operation in a Graph API batch request.
type batchOp struct {
	Method      string `json:"method"`
	RelativeURL string `json:"relative_url"`
	Body        string `json:"body"`
	// SourceIP optionally overrides the outer request's X-Forwarded-For
	// for this operation. Delivery engines route each action of a burst
	// through a different member of their IP pool; the per-op field lets
	// a batched burst keep that attribution.
	SourceIP string `json:"source_ip,omitempty"`
}

// batchResult is one operation's outcome.
type batchResult struct {
	Code int    `json:"code"`
	Body string `json:"body"`
}

// maxBatchOpBytes bounds the /batch body per allowed op, so an oversized
// body is refused before its op array is decoded. A client's
// form-encoded like op is well under 1 KiB.
const maxBatchOpBytes = 4 << 10

// batch implements POST /batch for the one shape clients send: a JSON
// array of up to MaxBatchOps likes on one object, lowered to the API's
// native LikeBatch, each op answered with its own embedded status and
// body. The access_token of the outer request is the default for ops
// that do not carry their own. Any other batch is refused with one 400
// envelope and nothing is applied.
func (h *httpAPI) batch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		h.writeError(w, h.api.err(provider.KindInvalidParam, "GraphMethodException", "POST required"))
		return
	}
	maxOps := h.api.prov.MaxBatchOps()
	r.Body = http.MaxBytesReader(w, r.Body, int64(maxOps)*maxBatchOpBytes)
	if err := r.ParseForm(); err != nil {
		h.writeError(w, h.api.err(provider.KindInvalidParam, "GraphMethodException", "bad batch body: %v", err))
		return
	}
	var ops []batchOp
	if err := json.Unmarshal([]byte(r.FormValue("batch")), &ops); err != nil {
		h.writeError(w, h.api.err(provider.KindInvalidParam, "GraphMethodException", "bad batch JSON: %v", err))
		return
	}
	if len(ops) == 0 || len(ops) > maxOps {
		h.writeError(w, h.api.err(provider.KindInvalidParam, "GraphMethodException", "batch size must be 1..%d", maxOps))
		return
	}
	objectID, likeOps, ok := parseLikeBatch(ops, r.FormValue("access_token"), r.Header.Get("X-Forwarded-For"))
	if !ok {
		h.writeError(w, h.api.err(provider.KindInvalidParam, "GraphMethodException", "batch must be POST /{object}/likes operations on one object"))
		return
	}
	errs := h.api.LikeBatch(r.Context(), objectID, likeOps)
	results := make([]batchResult, len(errs))
	for i, err := range errs {
		results[i] = h.likeBatchResult(err)
	}
	writeBatch(w, results)
}

// parseLikeBatch recognises a like batch — every op a POST to the same
// /{object}/likes edge carrying only token and proof parameters — and
// lowers it to the API's native batched endpoint. ok=false means the
// batch has any other shape.
func parseLikeBatch(ops []batchOp, defaultToken, fwd string) (string, []BatchLikeOp, bool) {
	fwdIP := firstHop(fwd)
	objectID := ""
	out := make([]BatchLikeOp, len(ops))
	for i, op := range ops {
		if !strings.EqualFold(op.Method, http.MethodPost) || strings.Contains(op.RelativeURL, "?") {
			return "", nil, false
		}
		object, edge, ok := splitEdge(op.RelativeURL)
		if !ok || object == "" || edge != "likes" {
			return "", nil, false
		}
		if i == 0 {
			objectID = object
		} else if object != objectID {
			return "", nil, false
		}
		vals, err := url.ParseQuery(op.Body)
		if err != nil {
			return "", nil, false
		}
		for k := range vals {
			if k != "access_token" && k != "appsecret_proof" {
				return "", nil, false
			}
		}
		token := vals.Get("access_token")
		if token == "" {
			token = defaultToken
		}
		ip := strings.TrimSpace(op.SourceIP)
		if ip == "" {
			ip = fwdIP
		}
		out[i] = BatchLikeOp{Token: token, AppSecretProof: vals.Get("appsecret_proof"), IP: ip}
	}
	return objectID, out, true
}

// likeBatchResult renders one batched like outcome into the status and
// envelope a standalone POST /{object}/likes answers with.
func (h *httpAPI) likeBatchResult(err error) batchResult {
	if err == nil {
		return batchResult{Code: http.StatusOK, Body: likeAck}
	}
	ae := h.asAPIError(err)
	return batchResult{Code: httpStatus(ae.Kind), Body: string(appendErrorEnvelope(nil, ae))}
}

// object dispatches /{id}/likes and /{id}/comments. Another method on
// either edge answers 400 naming the methods it takes, as /me/feed and
// /batch answer theirs; an unknown path or edge is a 404.
func (h *httpAPI) object(w http.ResponseWriter, r *http.Request) {
	objectID, edge, ok := splitEdge(r.URL.Path)
	if !ok {
		h.writeError(w, h.api.err(provider.KindNotFound, "GraphMethodException", "unknown path %q", r.URL.Path))
		return
	}
	ctx := callContext(r)
	switch {
	case edge == "likes" && r.Method == http.MethodPost:
		if err := h.api.Like(ctx, objectID); err != nil {
			h.writeError(w, err)
			return
		}
		writeAck(w)
	case edge == "likes" && r.Method == http.MethodGet:
		limit, after, perr := pageParams(r)
		if perr != nil {
			h.writeError(w, h.api.err(provider.KindInvalidParam, "GraphMethodException", "%v", perr))
			return
		}
		likes, next, more, err := h.api.LikesPage(ctx, objectID, after, limit)
		if err != nil {
			h.writeError(w, err)
			return
		}
		bp := encodeBufs.Get().(*[]byte)
		sendRendered(w, http.StatusOK, bp, appendLikesPage((*bp)[:0], likes, next, more))
	case edge == "likes":
		h.writeError(w, h.api.err(provider.KindInvalidParam, "GraphMethodException", "GET or POST required"))
	case edge == "comments" && r.Method == http.MethodPost:
		c, err := h.api.Comment(ctx, objectID, r.FormValue("message"))
		if err != nil {
			h.writeError(w, err)
			return
		}
		writeJSON(w, map[string]any{"id": c.ID})
	case edge == "comments":
		h.writeError(w, h.api.err(provider.KindInvalidParam, "GraphMethodException", "POST required"))
	default:
		h.writeError(w, h.api.err(provider.KindNotFound, "GraphMethodException", "unknown edge %q", edge))
	}
}
