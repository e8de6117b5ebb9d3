package synth

// Config parameterises the synthetic world. Every default is calibrated
// against a number the paper reports; the citation is next to each field.
// Counts marked "full scale" are multiplied by Scale at generation time.
type Config struct {
	// Seed drives all randomness; a fixed seed regenerates the same world.
	Seed int64

	// Scale multiplies the population counts. 1.0 reproduces the paper's
	// 111K-app corpus; experiments default to 0.1, tests run smaller.
	Scale float64

	// TotalApps is the number of distinct apps observed posting
	// (111,167 in D-Total, Table 1). Full scale.
	TotalApps int

	// FracMalicious is the truly-malicious fraction of apps. The paper
	// reports "at least 13%": 6,350 MPK-flagged + 8,051 found by FRAppE
	// = 14,401 of 111,167 (§1, §5.3).
	FracMalicious float64

	// UsersPerApp sizes the monitored user population relative to apps
	// (2.2M users / 111K apps ≈ 20).
	UsersPerApp int

	// Months is the observation window (June 2011 – March 2012 = 9).
	Months int
	// CrawlMonth is when the feature crawls happen (March–May 2012).
	CrawlMonth int
	// ValidationMonth is when §5.3's deleted-from-graph validation runs
	// (October 2012).
	ValidationMonth int

	// ---- Malicious app profile (§4) ----

	// MaliciousDescriptionRate etc.: fraction of malicious apps with a
	// non-empty summary field (Fig. 5: description 1.4%).
	MaliciousDescriptionRate float64
	MaliciousCompanyRate     float64
	MaliciousCategoryRate    float64
	// MaliciousProfilePostsRate: fraction with posts on the profile page
	// (Fig. 9: 3%).
	MaliciousProfilePostsRate float64
	// MaliciousSinglePermRate: fraction requesting exactly one permission
	// (Fig. 7: 97%, always publish_stream).
	MaliciousSinglePermRate float64
	// MaliciousClientIDMismatchRate: fraction using a different client ID
	// in the install URL (§4.1.4: 78%).
	MaliciousClientIDMismatchRate float64
	// MaliciousWOTUnknownRate / MaliciousWOTLowRate: redirect domains with
	// no WOT score (80%) and with score < 5 (15 more points of the 95%
	// below 5; Fig. 8).
	MaliciousWOTUnknownRate float64
	MaliciousWOTLowRate     float64
	// MaliciousBitlyRate: fraction of malicious apps that post bit.ly
	// links (3,805 of 6,273 ≈ 61%, §3).
	MaliciousBitlyRate float64
	// PolishedMaliciousRate: malicious apps whose creators configured them
	// like benign apps (full summary, several permissions, reputable
	// redirect, profile posts). These are the classifier's false negatives
	// (FRAppE's 4.1% FN rate, §5.2) and the obfuscation §7 anticipates.
	PolishedMaliciousRate float64

	// ---- Benign app profile ----

	BenignDescriptionRate  float64 // Fig. 5 / Table 6: ~95%
	BenignCompanyRate      float64 // Table 6 company FP 55% -> ~45% have it
	BenignCategoryRate     float64 // Table 6 category FP 45.8% -> ~54%
	BenignProfilePostsRate float64 // Table 6: ~96%
	BenignSinglePermRate   float64 // §4.1.2: 62% (D-Inst); Table 6 suggests ~51%
	BenignClientIDMismatch float64 // §4.1.4: 1%
	BenignWOTUnknownRate   float64 // Fig. 8: ~13% of benign lack scores
	BenignFacebookRedirect float64 // §4.1.3: 80% redirect to apps.facebook.com
	BenignExternalLinkRate float64 // Fig. 12: 20% of benign post any external links
	// SloppyBenignRate: legitimate apps configured as badly as scams
	// (empty summary, one permission, no-reputation redirect). These are
	// the rare false positives (FRAppE Lite's 0.1% FP, §5.1).
	SloppyBenignRate float64

	// ---- Ecosystem structure (§6) ----

	// FracColluding: malicious apps participating in AppNets
	// (6,331 of 6,350 ≈ 99.7%).
	FracColluding float64
	// HackersPerMaliciousApp sets the AppNet count: hackers ≈ rate × #mal.
	// 44 observed components / 6,331 detected apps ≈ 0.007.
	HackersPerMaliciousApp float64
	// PromoterRate / DualRate: Fig. 13 role split (25% / 16.2%; the
	// remaining 58.8% are pure promotees).
	PromoterRate float64
	DualRate     float64
	// DirectPromoterRate: promoters using direct install links instead of
	// indirection websites (692 vs 1,936; §6.1).
	DirectPromoterRate float64
	// SitesPerThousandMalicious: indirection sites per 1000 malicious apps
	// (103 sites / 14,401 apps ≈ 7).
	SitesPerThousandMalicious float64
	// AmazonHostedSiteRate: indirection sites on amazonaws.com (1/3).
	AmazonHostedSiteRate float64
	// AppsPerCampaignName: mean apps sharing one name (§4.2.1: "on
	// average, 5 malicious apps have the same name").
	AppsPerCampaignName float64
	// CliqueCampaignRate: probability that a LARGE campaign (a dozen apps
	// or more) cross-promotes internally, producing the dense same-name
	// neighbourhoods of Fig. 15 and the high local clustering
	// coefficients of Fig. 14 (25% of apps above 0.74). Small campaigns
	// form cliques at a tenth of this rate.
	CliqueCampaignRate float64
	// TyposquatRate: malicious apps typosquatting popular benign names
	// (5 'FarmVile' apps of 6,273 ≈ 0.1%; §5.3).
	TyposquatRate float64

	// ---- MyPageKeeper visibility ----

	// CampaignBlacklistShare: app-weighted fraction of campaigns whose
	// landing URLs appear in the URL blacklists MPK consumes. Assigned by
	// quota so the MPK-detected fraction of malicious apps stays near the
	// paper's 6,350 / 14,401 ≈ 44% at every world scale and seed
	// (together with EvasiveHackerRate).
	CampaignBlacklistShare float64
	// EvasiveHackerRate: campaigns whose posts vary text and avoid lure
	// keywords, evading MyPageKeeper's heuristic path. Drawn per campaign.
	EvasiveHackerRate float64

	// ---- Posting volume ----

	// MaxMaterializedPostsPerApp bounds per-app posts streamed through the
	// monitor; true per-app volumes (Table 2, Table 9) are tracked as
	// counters. Keeps memory flat at any scale.
	MaxMaterializedPostsPerApp int
	// IngestWorkers is the fan-out of the monitor's queued ingestion path
	// during the post-streaming stages: generation stays single-threaded
	// and seeded, but shard updates land concurrently. 0 means GOMAXPROCS.
	// The generated world is byte-identical for every value (see
	// internal/mypagekeeper's determinism argument).
	IngestWorkers int
	// WALDir, when non-empty, puts a write-ahead log under the ingestion
	// session: every streamed event (posts, blacklist adds) is appended
	// to an internal/wal log in that directory before it is applied, with
	// fsync barriers at flushes, blacklist adds, and session close. A log
	// the directory already holds (a crashed or finished run's) is
	// resumed: the regenerated, deterministic event stream skips
	// re-logging the events it has, so the log ends at one generation.
	// The generated world is byte-identical with or without it.
	WALDir string
	// ManualPostFrac: fraction of the monitored stream with no application
	// field (§2.2: 37%).
	ManualPostFrac float64
	// ManualScamShareRate: manual posts sharing scam URLs, producing the
	// 27% of flagged posts with no app (§2.2).
	ManualScamShareRate float64
	// PiggybackVictims: popular benign apps hackers piggyback on (§6.2).
	// Full scale; Table 9 lists the top five. Also ≈ the whitelist size
	// (6,350 − 6,273 = 77 apps whitelisted in §2.3).
	PiggybackVictims int
	// PiggybackPostFrac: piggybacked malicious posts as a fraction of the
	// victim's own post volume (Fig. 16: victims' flagged ratio < 0.2).
	PiggybackPostFrac float64

	// ---- Deletion timeline (§5.3) ----

	// MaliciousDeletedByCrawl: malicious apps Facebook removed before the
	// crawl (D-Summary holds 2,528 of 6,273 malicious ⇒ ~60% deleted).
	MaliciousDeletedByCrawl float64
	// MaliciousDeletedByValidation: removed by October 2012 (5,440 of
	// 6,273 ≈ 87%; 81% of FRAppE's new detections).
	MaliciousDeletedByValidation float64
	// BenignDeletedByCrawl: benign apps gone by crawl time (6,273−6,067
	// ≈ 3.3%).
	BenignDeletedByCrawl float64

	// ---- §7 countermeasures (off by default; the What-if experiment
	// turns them on to measure the ecosystem impact the paper predicts) ----

	// Countermeasures enables the paper's recommendations to Facebook.
	Countermeasures Countermeasures

	// ---- Crawl success (§2.3) ----

	// InstallCrawlBenignRate / InstallCrawlMaliciousRate: probability the
	// permission crawl succeeds for an app that is still alive at crawl
	// time — "different apps have different redirection processes, which
	// are intended for humans and not for crawlers" (D-Inst: 2,255 of
	// 6,067 live benign ≈ 37%; 491 of 2,528 live malicious ≈ 19%).
	InstallCrawlBenignRate    float64
	InstallCrawlMaliciousRate float64
	// FeedCrawlBenignRate / FeedCrawlMaliciousRate: profile-feed crawl
	// success for live apps (D-ProfileFeed: 6,063 of 6,273 benign; the
	// paper's 3,227 malicious feeds predate some deletions — here feeds of
	// deleted apps fail, so the malicious feed count tracks the alive set).
	FeedCrawlBenignRate    float64
	FeedCrawlMaliciousRate float64
}

// Countermeasures are the §7 recommendations, enforceable by the platform
// and the posting pipeline.
type Countermeasures struct {
	// BlockAppPromotion: "apps should not be allowed to promote other
	// apps" — promotion posts (direct install links, indirection-site
	// links, clique cross-promotion) are dropped at posting time.
	BlockAppPromotion bool
	// EnforceClientID: the install client_id must equal the app ID;
	// hackers are forced to register compliant apps.
	EnforceClientID bool
	// AuthenticatePromptFeed: prompt_feed calls with a mismatched api_key
	// are rejected, killing piggybacking.
	AuthenticatePromptFeed bool
}

// Default returns the paper-calibrated configuration at the given scale
// (1.0 = the full 111K-app corpus).
func Default(scale float64) Config {
	return Config{
		Seed:            20121210, // CoNEXT'12 opening day
		Scale:           scale,
		TotalApps:       111167,
		FracMalicious:   0.1296,
		UsersPerApp:     20,
		Months:          9,
		CrawlMonth:      11,
		ValidationMonth: 16,

		MaliciousDescriptionRate:      0.014,
		MaliciousCompanyRate:          0.008,
		MaliciousCategoryRate:         0.012,
		MaliciousProfilePostsRate:     0.03,
		MaliciousSinglePermRate:       0.97,
		MaliciousClientIDMismatchRate: 0.78,
		MaliciousWOTUnknownRate:       0.80,
		MaliciousWOTLowRate:           0.15,
		MaliciousBitlyRate:            0.61,
		PolishedMaliciousRate:         0.042,

		BenignDescriptionRate:  0.95,
		BenignCompanyRate:      0.45,
		BenignCategoryRate:     0.54,
		BenignProfilePostsRate: 0.957,
		BenignSinglePermRate:   0.55,
		BenignClientIDMismatch: 0.01,
		BenignWOTUnknownRate:   0.13,
		BenignFacebookRedirect: 0.80,
		BenignExternalLinkRate: 0.20,
		SloppyBenignRate:       0.004,

		FracColluding:             0.997,
		HackersPerMaliciousApp:    0.007,
		PromoterRate:              0.25,
		DualRate:                  0.162,
		DirectPromoterRate:        0.26,
		SitesPerThousandMalicious: 7.2,
		AmazonHostedSiteRate:      0.33,
		AppsPerCampaignName:       5,
		CliqueCampaignRate:        0.80,
		TyposquatRate:             0.001,

		CampaignBlacklistShare: 0.26,
		EvasiveHackerRate:      0.80,

		MaxMaterializedPostsPerApp: 400,
		ManualPostFrac:             0.37,
		ManualScamShareRate:        0.016,
		PiggybackVictims:           77,
		PiggybackPostFrac:          0.20,

		MaliciousDeletedByCrawl:      0.60,
		MaliciousDeletedByValidation: 0.85,
		BenignDeletedByCrawl:         0.033,

		InstallCrawlBenignRate:    0.372,
		InstallCrawlMaliciousRate: 0.194,
		FeedCrawlBenignRate:       0.999,
		FeedCrawlMaliciousRate:    0.95,
	}
}

// TestConfig returns a tiny world for unit tests (a few hundred apps).
func TestConfig() Config {
	c := Default(0.01)
	c.MaxMaterializedPostsPerApp = 60
	return c
}

// NumApps returns the scaled app count.
func (c Config) NumApps() int {
	n := int(float64(c.TotalApps) * c.Scale)
	if n < 50 {
		n = 50
	}
	return n
}

// NumMalicious returns the scaled truly-malicious app count.
func (c Config) NumMalicious() int {
	n := int(float64(c.NumApps()) * c.FracMalicious)
	if n < 10 {
		n = 10
	}
	return n
}

// NumUsers returns the scaled monitored-user population.
func (c Config) NumUsers() int {
	n := c.NumApps() * c.UsersPerApp
	if n < 500 {
		n = 500
	}
	return n
}

// NumPiggybackVictims returns the scaled victim count (at least 3 so the
// piggybacking experiments always have subjects).
func (c Config) NumPiggybackVictims() int {
	n := int(float64(c.PiggybackVictims) * c.Scale)
	if n < 3 {
		n = 3
	}
	return n
}

// NumHackers returns the scaled AppNet operator count.
func (c Config) NumHackers() int {
	n := int(float64(c.NumMalicious()) * c.HackersPerMaliciousApp)
	if n < 8 {
		n = 8
	}
	return n
}

// NumIndirectionSites returns the scaled indirection-website count.
func (c Config) NumIndirectionSites() int {
	n := int(float64(c.NumMalicious()) * c.SitesPerThousandMalicious / 1000)
	if n < 2 {
		n = 2
	}
	return n
}
