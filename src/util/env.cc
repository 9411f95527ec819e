#include "util/env.h"

#include <cerrno>
#include <cstdlib>

#include "util/log.h"

namespace isrf {

bool
parseU64(const std::string &text, uint64_t &out)
{
    if (text.empty())
        return false;
    // strtoull happily accepts "-1" (wrapping) and leading whitespace;
    // reject anything but plain digits up front.
    for (char c : text)
        if (c < '0' || c > '9')
            return false;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (errno == ERANGE || end != text.c_str() + text.size())
        return false;
    out = v;
    return true;
}

uint64_t
envU64(const char *name, uint64_t def, std::vector<std::string> *errs)
{
    const char *raw = std::getenv(name);
    if (!raw)
        return def;
    uint64_t v = 0;
    if (parseU64(raw, v))
        return v;
    if (errs) {
        errs->push_back(strprintf("%s='%s' is not a valid unsigned "
                                  "integer; using default %llu",
                                  name, raw,
                                  static_cast<unsigned long long>(def)));
    }
    return def;
}

std::string
envStr(const char *name)
{
    const char *raw = std::getenv(name);
    return raw ? std::string(raw) : std::string();
}

void
warnEnvErrors(const std::vector<std::string> &errs)
{
    if (errs.empty())
        return;
    std::string msg = "ignoring " + std::to_string(errs.size()) +
        " invalid environment setting(s):";
    for (const auto &e : errs)
        msg += "\n  - " + e;
    ISRF_WARN("%s", msg.c_str());
}

} // namespace isrf
