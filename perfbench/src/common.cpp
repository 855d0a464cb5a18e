#include "common.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "tensor/cpu_features.h"
#include "tensor/quant.h"
#include "tensor/tensor.h"

namespace perfbench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t k = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(v.size()))) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

namespace {

double status_field_mb(pid_t pid, const char* field) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  const std::string key = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::strtod(line.c_str() + key.size(), nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

double peak_rss_mb(pid_t pid) { return status_field_mb(pid, "VmHWM"); }
double rss_mb(pid_t pid) { return status_field_mb(pid, "VmRSS"); }

Scale full_scale() { return Scale{}; }

Scale smoke_scale() {
  Scale s;
  s.smoke = true;
  s.serve_nodes = 5000;
  s.train_nodes = 6000;
  s.train_feat_dim = 64;
  s.setup_rounds_serve = 2;
  s.setup_rounds_train = 2;
  s.warmup_seconds = 0.3;
  return s;
}

// --- Record ----------------------------------------------------------------

void Record::metric(const std::string& name, double value,
                    const std::string& unit, std::size_t samples) {
  if (!std::isfinite(value)) incorrect("metric " + name + " is not finite");
  metrics_[name] = Metric{value, unit, samples};
}

void Record::info(const std::string& key, const std::string& value) {
  info_[key] = "\"" + json_escape(value) + "\"";
}

void Record::info(const std::string& key, double value) {
  info_[key] = json_number(value);
}

void Record::attempt(const std::string& phase, std::size_t n) {
  attempted_[phase] += n;
}

void Record::failure(const std::string& phase, const std::string& cause,
                     std::size_t n) {
  if (n) failed_[{phase, cause}] += n;
}

void Record::incorrect(const std::string& why) {
  std::fprintf(stderr, "perfbench: INCORRECT: %s\n", why.c_str());
  problems_.push_back(why);
}

std::size_t Record::attempted() const {
  std::size_t n = 0;
  for (const auto& [phase, count] : attempted_) n += count;
  return n;
}

std::size_t Record::failed() const {
  std::size_t n = 0;
  for (const auto& [key, count] : failed_) n += count;
  return n;
}

std::size_t Record::failed_by_cause(const std::string& cause) const {
  std::size_t n = 0;
  for (const auto& [key, count] : failed_) {
    if (key.second == cause) n += count;
  }
  return n;
}

void Record::write(const std::string& path) const {
  std::ostringstream o;
  o << "{\"correct\":" << (correct() ? "true" : "false")
    << ",\"attempted\":" << attempted() << ",\"failed\":" << failed();
  o << ",\"problems\":[";
  for (std::size_t i = 0; i < problems_.size(); ++i) {
    o << (i ? "," : "") << "\"" << json_escape(problems_[i]) << "\"";
  }
  o << "],\"attempted_by_phase\":{";
  bool first = true;
  for (const auto& [phase, n] : attempted_) {
    o << (first ? "" : ",") << "\"" << json_escape(phase) << "\":" << n;
    first = false;
  }
  o << "},\"failed_by_phase_cause\":{";
  first = true;
  for (const auto& [key, n] : failed_) {
    o << (first ? "" : ",") << "\"" << json_escape(key.first) << "/"
      << json_escape(key.second) << "\":" << n;
    first = false;
  }
  o << "},\"info\":{";
  first = true;
  for (const auto& [k, v] : info_) {
    o << (first ? "" : ",") << "\"" << json_escape(k) << "\":" << v;
    first = false;
  }
  o << "},\"metrics\":{";
  first = true;
  for (const auto& [name, m] : metrics_) {
    o << (first ? "" : ",") << "\"" << json_escape(name)
      << "\":{\"value\":" << json_number(m.value) << ",\"unit\":\""
      << json_escape(m.unit) << "\",\"samples\":" << m.samples << "}";
    first = false;
  }
  o << "}}\n";
  std::ofstream f(path, std::ios::trunc);
  f << o.str();
  f.flush();
  if (!f) throw std::runtime_error("cannot write record " + path);
}

void fingerprint(Record& rec, const Args& args) {
  rec.info("workload", args.workload);
  rec.info("seed", static_cast<double>(args.seed));
  rec.info("seconds", args.seconds);
  rec.info("trace", args.trace ? 1.0 : 0.0);
  rec.info("smoke", args.scale.smoke ? 1.0 : 0.0);
  rec.info("nproc", static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN)));
  rec.info("active_isa", ppgnn::isa_name(ppgnn::active_isa()));
  // The arm an int8 deployment on this host dispatches to: pack a tiny
  // matrix the way every quantized Linear is packed and ask.
  ppgnn::Tensor probe({4, 8});
  probe.fill(1.0f);
  rec.info("gemm_arm", ppgnn::isa_name(ppgnn::gemm_dispatch_arm(
                           ppgnn::quantize_per_row(probe))));
  rec.info("build_type", PERFBENCH_BUILD_TYPE);
  rec.info("compiler", __VERSION__);
  const char* threads = std::getenv("PPGNN_NUM_THREADS");
  rec.info("PPGNN_NUM_THREADS", threads ? threads : "unset");
}

// --- Tracer ----------------------------------------------------------------

namespace {
constexpr std::uint64_t kLocalBits = 40;
}

std::uint64_t Tracer::Buffer::reserve() {
  spans_.emplace_back();
  spans_.back().id = (tag_ << kLocalBits) | spans_.size();
  return spans_.back().id;
}

void Tracer::Buffer::finish(std::uint64_t id, std::uint32_t name,
                            std::uint64_t trace, std::uint64_t parent,
                            Clock::time_point start, Clock::time_point end) {
  Span& s = spans_.at((id & ((std::uint64_t{1} << kLocalBits) - 1)) - 1);
  s.name = name;
  s.trace = trace;
  s.parent = parent;
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   start - owner_->epoch_)
                   .count();
  s.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                 end - owner_->epoch_)
                 .count();
}

std::uint64_t Tracer::Buffer::add(std::uint32_t name, std::uint64_t trace,
                                  std::uint64_t parent,
                                  Clock::time_point start,
                                  Clock::time_point end) {
  const std::uint64_t id = reserve();
  finish(id, name, trace, parent, start, end);
  return id;
}

Tracer::Tracer() : epoch_(Clock::now()) {}

std::uint32_t Tracer::name_id(const std::string& name) {
  for (std::uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

Tracer::Buffer& Tracer::new_buffer() {
  buffers_.push_back(std::unique_ptr<Buffer>(
      new Buffer(this, static_cast<std::uint64_t>(buffers_.size() + 1))));
  return *buffers_.back();
}

std::vector<Span> Tracer::merged() const {
  std::vector<Span> all;
  for (const auto& b : buffers_) {
    all.insert(all.end(), b->spans_.begin(), b->spans_.end());
  }
  return all;
}

std::vector<double> Tracer::self_us_all() const {
  const std::vector<Span> all = merged();
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) index[all[i].id] = i;
  // Child intervals per parent, clipped to the parent.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> covered(
      all.size());
  for (const Span& s : all) {
    if (s.parent == 0) continue;
    const auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const Span& p = all[it->second];
    const std::int64_t a = std::max(s.start_ns, p.start_ns);
    const std::int64_t b = std::min(s.end_ns, p.end_ns);
    if (b > a) covered[it->second].emplace_back(a, b);
  }
  std::vector<double> self(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    auto& iv = covered[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t union_ns = 0, reach = INT64_MIN;
    for (const auto& [a, b] : iv) {
      const std::int64_t from = std::max(a, reach);
      if (b > from) union_ns += b - from;
      reach = std::max(reach, b);
    }
    self[i] = (all[i].end_ns - all[i].start_ns - union_ns) / 1000.0;
  }
  return self;
}

std::map<std::string, Tracer::SelfTime> Tracer::self_times() const {
  const std::vector<Span> all = merged();
  const std::vector<double> self = self_us_all();
  std::map<std::string, SelfTime> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    SelfTime& s = out[names_[all[i].name]];
    s.count += 1;
    s.total_us += self[i];
  }
  return out;
}

std::map<std::uint64_t, double> Tracer::self_us_by_trace(
    const std::string& name) const {
  const std::vector<Span> all = merged();
  const std::vector<double> self = self_us_all();
  std::map<std::uint64_t, double> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (names_[all[i].name] == name) out[all[i].trace] += self[i];
  }
  return out;
}

std::size_t Tracer::size() const {
  std::size_t n = 0;
  for (const auto& b : buffers_) n += b->spans_.size();
  return n;
}

void Tracer::write_csv(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  f << "name,trace,id,parent,start_ns,end_ns\n";
  for (const Span& s : merged()) {
    f << names_[s.name] << ',' << s.trace << ',' << s.id << ',' << s.parent
      << ',' << s.start_ns << ',' << s.end_ns << '\n';
  }
  f.flush();
  if (!f) throw std::runtime_error("cannot write spans " + path);
}

}  // namespace perfbench
