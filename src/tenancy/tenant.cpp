#include "tenancy/tenant.h"

#include <cstdio>
#include <cstdlib>

namespace ppgnn::tenancy {

void apply_contract(const TenantContract& c, const serve::Clock& clock,
                    serve::Priority* priority,
                    std::chrono::steady_clock::time_point* deadline) {
  if (c.priority_ceiling == serve::Priority::kLow) {
    *priority = serve::Priority::kLow;
  }
  if (*deadline == std::chrono::steady_clock::time_point::max() &&
      c.default_deadline_us > 0) {
    *deadline = clock.now() + std::chrono::microseconds(c.default_deadline_us);
  }
}

bool parse_tenant_mix(const std::string& spec,
                      std::vector<std::uint32_t>* weights, std::string* err) {
  weights->clear();
  if (spec.empty()) return true;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string tok =
        spec.substr(pos, comma == std::string::npos ? std::string::npos
                                                    : comma - pos);
    char* end = nullptr;
    const unsigned long w = std::strtoul(tok.c_str(), &end, 10);
    if (tok.empty() || end == tok.c_str() || *end != '\0') {
      if (err) *err = "bad --tenant-mix token '" + tok + "' (want integers)";
      weights->clear();
      return false;
    }
    weights->push_back(w == 0 ? 1u : static_cast<std::uint32_t>(w));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return true;
}

std::string describe(const TenantContract& c) {
  char buf[160];
  std::snprintf(
      buf, sizeof buf,
      "rate=%.6g/s burst=%.6g weight=%u deadline=%lluus ceiling=%s",
      c.rate_per_s, c.effective_burst(), c.weight == 0 ? 1u : c.weight,
      static_cast<unsigned long long>(c.default_deadline_us),
      c.priority_ceiling == serve::Priority::kHigh ? "high" : "low");
  return buf;
}

}  // namespace ppgnn::tenancy
