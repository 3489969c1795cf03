/**
 * @file
 * Minimal command-line flag parser for benches and examples.
 *
 * Supports "--name=value" and "--name value" forms plus boolean
 * "--flag". Unknown flags are kept and simply never read; values
 * that do not parse as numbers read as 0.
 */

#ifndef PADE_COMMON_CLI_H
#define PADE_COMMON_CLI_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pade {

/** Parsed command-line flags with typed accessors and defaults. */
class Cli
{
  public:
    Cli(int argc, char **argv);

    /** String flag with default. */
    std::string get(const std::string &name,
                    const std::string &def = "") const;
    /** Integer flag with default. */
    int64_t getInt(const std::string &name, int64_t def) const;
    /** Double flag with default. */
    double getDouble(const std::string &name, double def) const;
    /** Boolean flag: present without value, or =true/=false. */
    bool getBool(const std::string &name, bool def = false) const;

    /** True if the flag was provided. */
    bool has(const std::string &name) const;

    /** Positional (non-flag) arguments. */
    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

  private:
    std::map<std::string, std::string> flags_;
    std::vector<std::string> positional_;
};

} // namespace pade

#endif // PADE_COMMON_CLI_H
