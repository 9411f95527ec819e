/**
 * @file
 * Validated environment-variable parsing.
 *
 * The numeric ISRF_* tuning variables (ISRF_TRACE_CAPACITY, ...)
 * used to be read with atol(), which silently accepts garbage and
 * overflows. These helpers parse strictly (strtoull + errno +
 * end-pointer checks) and let callers collect every violation before
 * warning once, matching MachineConfig::validate()'s
 * collect-all-violations style.
 */
#ifndef ISRF_UTIL_ENV_H
#define ISRF_UTIL_ENV_H

#include <cstdint>
#include <string>
#include <vector>

namespace isrf {

/**
 * Strictly parse a base-10 unsigned integer: no sign, no trailing
 * junk, no overflow. @return false (out untouched) on any violation.
 */
bool parseU64(const std::string &text, uint64_t &out);

/**
 * Read an environment variable as a u64. On unset, returns `def`.
 * On a malformed or overflowing value, appends a description to
 * `errs` and returns `def` (warn-and-default; never fatal).
 */
uint64_t envU64(const char *name, uint64_t def,
                std::vector<std::string> *errs);

/** Read an environment variable as a string ("" when unset). */
std::string envStr(const char *name);

/** Emit one warning summarizing all collected env violations. */
void warnEnvErrors(const std::vector<std::string> &errs);

} // namespace isrf

#endif // ISRF_UTIL_ENV_H
