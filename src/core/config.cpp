#include "core/config.hpp"

#include <charconv>
#include <fstream>
#include <sstream>

namespace teco::core {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

bool parse_u64(std::string_view v, std::uint64_t* out) {
  const auto* end = v.data() + v.size();
  const auto res = std::from_chars(v.data(), end, *out);
  return res.ec == std::errc{} && res.ptr == end;
}

bool parse_onoff(std::string_view v, bool* out) {
  if (v == "on" || v == "true" || v == "1") {
    *out = true;
    return true;
  }
  if (v == "off" || v == "false" || v == "0") {
    *out = false;
    return true;
  }
  return false;
}

}  // namespace

ParsedConfig parse_config(std::string_view text) {
  ParsedConfig out;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  auto fail = [&](const std::string& what) {
    out.errors.push_back("line " + std::to_string(line_no) + ": " + what);
  };

  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line =
        text.substr(pos, eol == std::string_view::npos ? std::string_view::npos
                                                       : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;

    if (const auto hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    line = trim(line);
    if (line.empty()) continue;

    const auto eq = line.find('=');
    if (eq == std::string_view::npos) {
      fail("expected 'key = value'");
      continue;
    }
    const std::string key{trim(line.substr(0, eq))};
    const std::string_view value = trim(line.substr(eq + 1));

    if (key == "protocol") {
      if (value == "update") {
        out.session.protocol = coherence::Protocol::kUpdate;
      } else if (value == "invalidation") {
        out.session.protocol = coherence::Protocol::kInvalidation;
      } else {
        fail("protocol must be 'update' or 'invalidation'");
      }
    } else if (key == "dba") {
      if (!parse_onoff(value, &out.session.dba_enabled)) {
        fail("dba must be on/off");
      }
    } else if (key == "act_aft_steps") {
      std::uint64_t v = 0;
      if (parse_u64(value, &v)) {
        out.session.act_aft_steps = static_cast<std::size_t>(v);
      } else {
        fail("act_aft_steps must be a non-negative integer");
      }
    } else if (key == "dirty_bytes") {
      std::uint64_t v = 0;
      if (parse_u64(value, &v) && v <= 4) {
        out.session.dirty_bytes = static_cast<std::uint8_t>(v);
      } else {
        fail("dirty_bytes must be in [0, 4]");
      }
    } else if (key == "giant_cache_mib") {
      std::uint64_t v = 0;
      if (parse_u64(value, &v) && v > 0) {
        out.session.giant_cache_capacity = v << 20;
      } else {
        fail("giant_cache_mib must be a positive integer");
      }
    } else if (key == "trace") {
      if (!parse_onoff(value, &out.session.enable_trace)) {
        fail("trace must be on/off");
      }
    } else if (key == "check") {
      // `hb` layers happens-before trace recording on top of strict
      // checking; the other levels switch the recorder off (last wins).
      out.session.check_hb = false;
      if (value == "off") {
        out.session.check = check::CheckLevel::kOff;
      } else if (value == "count") {
        out.session.check = check::CheckLevel::kCount;
      } else if (value == "strict") {
        out.session.check = check::CheckLevel::kStrict;
      } else if (value == "hb") {
        out.session.check = check::CheckLevel::kStrict;
        out.session.check_hb = true;
      } else {
        fail("check must be off/count/strict/hb");
      }
    } else if (key == "ft_mode") {
      if (value == "off") {
        out.session.ft_mode = FtMode::kOff;
      } else if (value == "full") {
        out.session.ft_mode = FtMode::kFull;
      } else if (value == "incremental") {
        out.session.ft_mode = FtMode::kIncremental;
      } else {
        fail("ft_mode must be off/full/incremental");
      }
    } else if (key == "ft_checkpoint_interval") {
      std::uint64_t v = 0;
      if (parse_u64(value, &v) && v > 0) {
        out.session.ft_checkpoint_interval = static_cast<std::size_t>(v);
      } else {
        fail("ft_checkpoint_interval must be a positive integer");
      }
    } else if (key == "ft_seed") {
      std::uint64_t v = 0;
      if (parse_u64(value, &v)) {
        out.session.ft_seed = v;
      } else {
        fail("ft_seed must be a non-negative integer");
      }
    } else if (key == "obs_jsonl_path") {
      out.session.obs_jsonl_path = std::string(value);
    } else if (key == "obs_trace_path") {
      out.session.obs_trace_path = std::string(value);
    } else if (key == "obs_step_log") {
      if (!parse_onoff(value, &out.session.obs_step_log)) {
        fail("obs_step_log must be on/off");
      }
    } else if (key == "obs_causal") {
      if (!parse_onoff(value, &out.session.obs_causal)) {
        fail("obs_causal must be on/off");
      }
    } else if (key == "obs_causal_max_nodes") {
      std::uint64_t v = 0;
      if (parse_u64(value, &v) && v > 0) {
        out.session.obs_causal_max_nodes = static_cast<std::size_t>(v);
      } else {
        fail("obs_causal_max_nodes must be a positive integer");
      }
    } else if (key == "obs_trace_max_spans") {
      std::uint64_t v = 0;
      if (parse_u64(value, &v)) {
        out.session.obs_trace_max_spans = static_cast<std::size_t>(v);
      } else {
        fail("obs_trace_max_spans must be a non-negative integer");
      }
    } else {
      out.unknown_keys.push_back(key);
    }
  }
  return out;
}

ParsedConfig load_config_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    ParsedConfig out;
    out.errors.push_back("cannot open config file: " + path);
    return out;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_config(buf.str());
}

std::string to_config_text(const SessionConfig& cfg) {
  std::ostringstream os;
  os << "protocol = "
     << (cfg.protocol == coherence::Protocol::kUpdate ? "update"
                                                      : "invalidation")
     << "\n";
  os << "dba = " << (cfg.dba_enabled ? "on" : "off") << "\n";
  os << "act_aft_steps = " << cfg.act_aft_steps << "\n";
  os << "dirty_bytes = " << static_cast<unsigned>(cfg.dirty_bytes) << "\n";
  os << "giant_cache_mib = " << (cfg.giant_cache_capacity >> 20) << "\n";
  os << "trace = " << (cfg.enable_trace ? "on" : "off") << "\n";
  os << "check = "
     << (cfg.check_hb ? "hb" : check::to_string(cfg.check)) << "\n";
  os << "ft_mode = " << to_string(cfg.ft_mode) << "\n";
  os << "ft_checkpoint_interval = " << cfg.ft_checkpoint_interval << "\n";
  os << "ft_seed = " << cfg.ft_seed << "\n";
  // Empty path values round-trip as absent lines: the parser treats a
  // missing key as the default, and "key =" would read back as "".
  if (!cfg.obs_jsonl_path.empty()) {
    os << "obs_jsonl_path = " << cfg.obs_jsonl_path << "\n";
  }
  if (!cfg.obs_trace_path.empty()) {
    os << "obs_trace_path = " << cfg.obs_trace_path << "\n";
  }
  os << "obs_step_log = " << (cfg.obs_step_log ? "on" : "off") << "\n";
  os << "obs_causal = " << (cfg.obs_causal ? "on" : "off") << "\n";
  os << "obs_causal_max_nodes = " << cfg.obs_causal_max_nodes << "\n";
  os << "obs_trace_max_spans = " << cfg.obs_trace_max_spans << "\n";
  return os.str();
}

}  // namespace teco::core
