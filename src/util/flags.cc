#include "src/util/flags.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <iostream>
#include <type_traits>

namespace fairem {
namespace {

/// A setter that stores the value as given.
template <typename S>
std::function<bool(const std::string&)> Assign(S* out) {
  return [out](const std::string& text) {
    *out = text;
    return true;
  };
}

}  // namespace

void FlagSet::Bool(std::string name, bool* out) {
  flags_.push_back({std::move(name), "", false,
                    [out](const std::string&) { return *out = true; }});
}

void FlagSet::String(std::string name, std::string* out,
                     std::string metavar) {
  flags_.push_back({std::move(name), std::move(metavar), false, Assign(out)});
}

void FlagSet::String(std::string name, std::optional<std::string>* out,
                     std::string metavar) {
  flags_.push_back({std::move(name), std::move(metavar), false, Assign(out)});
}

void FlagSet::List(std::string name, std::vector<std::string>* out,
                   std::string metavar) {
  flags_.push_back({std::move(name), std::move(metavar), false,
                    [out](const std::string& text) {
                      for (std::string& item : Split(text, ',')) {
                        if (!item.empty()) out->push_back(std::move(item));
                      }
                      return true;
                    }});
}

void FlagSet::Repeated(std::string name, std::vector<std::string>* out,
                       std::string metavar) {
  flags_.push_back({std::move(name), std::move(metavar), true,
                    [out](const std::string& text) {
                      out->push_back(text);
                      return true;
                    }});
}

template <typename T>
void FlagSet::Number(std::string name, T* out, std::string metavar,
                     std::type_identity_t<T> min) {
  // All of the value counts, surrounding ASCII whitespace aside.
  Setter set = [out, min](const std::string& text) {
    T v{};
    if constexpr (std::is_floating_point_v<T>) {
      if (!ParseDouble(text, &v)) return false;
    } else {
      const std::string_view s = TrimAscii(text);
      const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
      if (s.empty() || ec != std::errc() || end != s.data() + s.size()) {
        return false;
      }
    }
    if (v < min) return false;
    *out = v;
    return true;
  };
  flags_.push_back(
      {std::move(name), std::move(metavar), false, std::move(set)});
}

template void FlagSet::Number(std::string, double*, std::string, double);
template void FlagSet::Number(std::string, int*, std::string, int);
template void FlagSet::Number(std::string, uint64_t*, std::string, uint64_t);

Status FlagSet::Parse(const std::vector<std::string>& args,
                      std::vector<std::string>* positionals) const {
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.size() < 2 || arg[0] != '-') {
      if (positionals == nullptr) {
        return Status::InvalidArgument("unexpected argument '" + arg + "'");
      }
      positionals->push_back(arg);
      continue;
    }
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    auto flag = std::find_if(flags_.begin(), flags_.end(),
                             [&](const Flag& f) { return f.name == name; });
    if (flag == flags_.end()) {
      return Status::InvalidArgument("unknown flag '" + name + "'");
    }
    std::string value;
    if (flag->metavar.empty()) {
      if (eq != std::string::npos) {
        return Status::InvalidArgument("flag " + name + " takes no value");
      }
    } else if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 < args.size()) {
      value = args[++i];
    } else {
      return Status::InvalidArgument("flag " + name + " needs a value");
    }
    if (!flag->set(value)) {
      return Status::InvalidArgument("invalid value '" + value + "' for " +
                                     name + " " + flag->metavar);
    }
  }
  return Status::OK();
}

void FlagSet::ParseOrExit(int argc, char** argv) const {
  if (Status st = Parse({argv + std::min(argc, 1), argv + argc}, nullptr);
      !st.ok()) {
    std::cerr << st.message() << "\nusage: " << (argc > 0 ? argv[0] : "")
              << (flags_.empty() ? "" : " ") << Synopsis() << "\n";
    std::exit(1);
  }
}

std::string FlagSet::Synopsis() const {
  std::string out;
  for (const Flag& flag : flags_) {
    if (!out.empty()) out += ' ';
    out += "[" + flag.name;
    if (!flag.metavar.empty()) out += " " + flag.metavar;
    out += flag.repeatable ? "]..." : "]";
  }
  return out;
}

}  // namespace fairem
