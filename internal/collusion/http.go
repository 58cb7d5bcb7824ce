package collusion

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// Handler exposes the collusion network website: the member-facing
// endpoints the honeypot automation drives.
//
//	GET  /                  landing page (install link; serves ads)
//	GET  /captcha           issue a CAPTCHA challenge        ?account_id=
//	POST /submit-token      pool a member token              account_id, access_token
//	POST /request-likes     ask for likes on a post          account_id, post_id[, captcha]
//	POST /request-comments  ask for auto-comments on a post  account_id, post_id[, captcha]
//	POST /adwall            walk the ad redirect chain       account_id
//
// Responses are JSON: {"ok":true, ...} or {"ok":false,"error":...}.
func Handler(n *Network) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		adblock := r.URL.Query().Get("adblock") == "1"
		if err := n.Visit(adblock); err != nil {
			writeSiteError(w, err)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprintf(w, `<html><head><title>%s - Facebook AutoLiker</title></head>
<body>
<h1>%s</h1>
<p>Get FREE likes on your posts! %d likes per submit!</p>
<ol>
<li><a href=%q>Install the application</a> and allow all permissions.</li>
<li>Copy the access token from your address bar.</li>
<li>Submit it below and start receiving likes!</li>
</ol>
<form method="POST" action="/submit-token">
<input name="account_id" placeholder="your account id">
<input name="access_token" placeholder="paste access token here">
<button>Submit</button>
</form>
</body></html>`, n.cfg.Name, n.cfg.Name, n.cfg.LikesPerRequest, n.InstallURL())
	})
	mux.HandleFunc("/captcha", func(w http.ResponseWriter, r *http.Request) {
		accountID := r.URL.Query().Get("account_id")
		if accountID == "" {
			writeJSONError(w, http.StatusBadRequest, "account_id required")
			return
		}
		writeOK(w, map[string]any{"challenge": n.Challenge(accountID)})
	})
	mux.HandleFunc("/submit-token", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeJSONError(w, http.StatusMethodNotAllowed, "POST required")
			return
		}
		err := n.SubmitToken(r.FormValue("account_id"), r.FormValue("access_token"))
		if err != nil {
			writeSiteError(w, err)
			return
		}
		writeOK(w, map[string]any{"members": n.MembershipSize()})
	})
	mux.HandleFunc("/request-likes", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeJSONError(w, http.StatusMethodNotAllowed, "POST required")
			return
		}
		delivered, err := n.RequestLikes(r.FormValue("account_id"), r.FormValue("post_id"), r.FormValue("captcha"))
		if err != nil {
			writeSiteError(w, err)
			return
		}
		writeOK(w, map[string]any{"delivered": delivered})
	})
	mux.HandleFunc("/request-comments", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeJSONError(w, http.StatusMethodNotAllowed, "POST required")
			return
		}
		delivered, err := n.RequestComments(r.FormValue("account_id"), r.FormValue("post_id"), r.FormValue("captcha"))
		if err != nil {
			writeSiteError(w, err)
			return
		}
		writeOK(w, map[string]any{"delivered": delivered})
	})
	mux.HandleFunc("/adwall", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeJSONError(w, http.StatusMethodNotAllowed, "POST required")
			return
		}
		if err := n.CompleteAdWall(r.FormValue("account_id")); err != nil {
			writeSiteError(w, err)
			return
		}
		writeOK(w, map[string]any{})
	})
	return mux
}

func writeOK(w http.ResponseWriter, fields map[string]any) {
	body := map[string]any{"ok": true}
	for k, v := range fields {
		body[k] = v
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(body)
}

func writeJSONError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]any{"ok": false, "error": msg})
}

func writeSiteError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrOutage):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrDailyLimit):
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrCaptchaRequired), errors.Is(err, ErrCaptchaWrong),
		errors.Is(err, ErrAdWallRequired), errors.Is(err, ErrBanned):
		status = http.StatusForbidden
	case errors.Is(err, ErrNotMember):
		status = http.StatusNotFound
	}
	writeJSONError(w, status, err.Error())
}
