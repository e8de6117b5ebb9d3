package synth

import (
	"errors"
	"fmt"
)

// ErrInvalidConfig wraps all configuration validation failures.
var ErrInvalidConfig = errors.New("synth: invalid config")

// Validate checks the configuration for values that would make generation
// meaningless or crash. Generate calls it and panics on violation (a bad
// config is a programming error, not a runtime condition); callers
// building configs from external input should call Validate themselves.
func (c Config) Validate() error {
	fail := func(format string, args ...interface{}) error {
		return fmt.Errorf("%w: %s", ErrInvalidConfig, fmt.Sprintf(format, args...))
	}
	if c.Scale <= 0 {
		return fail("Scale = %v, must be positive", c.Scale)
	}
	if c.TotalApps <= 0 {
		return fail("TotalApps = %d, must be positive", c.TotalApps)
	}
	if c.FracMalicious <= 0 || c.FracMalicious >= 1 {
		return fail("FracMalicious = %v, must be in (0,1)", c.FracMalicious)
	}
	if c.Months < 1 {
		return fail("Months = %d, must be >= 1", c.Months)
	}
	if c.CrawlMonth < c.Months {
		return fail("CrawlMonth = %d, must be >= Months (%d)", c.CrawlMonth, c.Months)
	}
	if c.ValidationMonth <= c.CrawlMonth {
		return fail("ValidationMonth = %d, must be > CrawlMonth (%d)", c.ValidationMonth, c.CrawlMonth)
	}
	if c.MaxMaterializedPostsPerApp < 1 {
		return fail("MaxMaterializedPostsPerApp = %d, must be >= 1", c.MaxMaterializedPostsPerApp)
	}
	if c.IngestWorkers < 0 {
		return fail("IngestWorkers = %d, must be >= 0", c.IngestWorkers)
	}
	if c.UsersPerApp < 1 {
		return fail("UsersPerApp = %d, must be >= 1", c.UsersPerApp)
	}
	rates := map[string]float64{
		"MaliciousDescriptionRate":      c.MaliciousDescriptionRate,
		"MaliciousCompanyRate":          c.MaliciousCompanyRate,
		"MaliciousCategoryRate":         c.MaliciousCategoryRate,
		"MaliciousProfilePostsRate":     c.MaliciousProfilePostsRate,
		"MaliciousSinglePermRate":       c.MaliciousSinglePermRate,
		"MaliciousClientIDMismatchRate": c.MaliciousClientIDMismatchRate,
		"MaliciousWOTUnknownRate":       c.MaliciousWOTUnknownRate,
		"MaliciousWOTLowRate":           c.MaliciousWOTLowRate,
		"MaliciousBitlyRate":            c.MaliciousBitlyRate,
		"PolishedMaliciousRate":         c.PolishedMaliciousRate,
		"BenignDescriptionRate":         c.BenignDescriptionRate,
		"BenignCompanyRate":             c.BenignCompanyRate,
		"BenignCategoryRate":            c.BenignCategoryRate,
		"BenignProfilePostsRate":        c.BenignProfilePostsRate,
		"BenignSinglePermRate":          c.BenignSinglePermRate,
		"BenignClientIDMismatch":        c.BenignClientIDMismatch,
		"BenignWOTUnknownRate":          c.BenignWOTUnknownRate,
		"BenignFacebookRedirect":        c.BenignFacebookRedirect,
		"BenignExternalLinkRate":        c.BenignExternalLinkRate,
		"SloppyBenignRate":              c.SloppyBenignRate,
		"FracColluding":                 c.FracColluding,
		"PromoterRate":                  c.PromoterRate,
		"DualRate":                      c.DualRate,
		"DirectPromoterRate":            c.DirectPromoterRate,
		"AmazonHostedSiteRate":          c.AmazonHostedSiteRate,
		"TyposquatRate":                 c.TyposquatRate,
		"CampaignBlacklistShare":        c.CampaignBlacklistShare,
		"EvasiveHackerRate":             c.EvasiveHackerRate,
		"CliqueCampaignRate":            c.CliqueCampaignRate,
		"ManualScamShareRate":           c.ManualScamShareRate,
		"PiggybackPostFrac":             c.PiggybackPostFrac,
		"MaliciousDeletedByCrawl":       c.MaliciousDeletedByCrawl,
		"MaliciousDeletedByValidation":  c.MaliciousDeletedByValidation,
		"BenignDeletedByCrawl":          c.BenignDeletedByCrawl,
		"InstallCrawlBenignRate":        c.InstallCrawlBenignRate,
		"InstallCrawlMaliciousRate":     c.InstallCrawlMaliciousRate,
		"FeedCrawlBenignRate":           c.FeedCrawlBenignRate,
		"FeedCrawlMaliciousRate":        c.FeedCrawlMaliciousRate,
	}
	for name, v := range rates {
		if v < 0 || v > 1 {
			return fail("%s = %v, must be in [0,1]", name, v)
		}
	}
	if c.ManualPostFrac < 0 || c.ManualPostFrac >= 1 {
		return fail("ManualPostFrac = %v, must be in [0,1)", c.ManualPostFrac)
	}
	if c.MaliciousWOTUnknownRate+c.MaliciousWOTLowRate > 1 {
		return fail("MaliciousWOTUnknownRate + MaliciousWOTLowRate = %v, must be <= 1",
			c.MaliciousWOTUnknownRate+c.MaliciousWOTLowRate)
	}
	if c.PromoterRate+c.DualRate > 1 {
		return fail("PromoterRate + DualRate = %v, must be <= 1", c.PromoterRate+c.DualRate)
	}
	if c.MaliciousDeletedByValidation < c.MaliciousDeletedByCrawl {
		return fail("MaliciousDeletedByValidation (%v) < MaliciousDeletedByCrawl (%v)",
			c.MaliciousDeletedByValidation, c.MaliciousDeletedByCrawl)
	}
	if c.AppsPerCampaignName < 1 {
		return fail("AppsPerCampaignName = %v, must be >= 1", c.AppsPerCampaignName)
	}
	if c.HackersPerMaliciousApp <= 0 {
		return fail("HackersPerMaliciousApp = %v, must be positive", c.HackersPerMaliciousApp)
	}
	if c.SitesPerThousandMalicious < 0 {
		return fail("SitesPerThousandMalicious = %v, must be >= 0", c.SitesPerThousandMalicious)
	}
	if c.PiggybackVictims < 0 {
		return fail("PiggybackVictims = %d, must be >= 0", c.PiggybackVictims)
	}
	return nil
}
