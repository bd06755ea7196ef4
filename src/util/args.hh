/**
 * @file
 * Minimal command-line argument parser for the bench/example
 * binaries. Supports `--name value`, `--name=value`, and boolean
 * flags; prints a generated usage string on `--help`.
 */

#ifndef RLR_UTIL_ARGS_HH
#define RLR_UTIL_ARGS_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace rlr::util
{

/**
 * Strict unsigned parsing for option values and spec items: all of
 * @p text must parse (base 0, so 0x hex works), carry no '-', and
 * not exceed @p max, else fatal() with a message naming @p what.
 */
uint64_t parseUint(const std::string &text, std::string_view what,
                   uint64_t max = UINT64_MAX);

/** Declarative argument registry + parser. */
class ArgParser
{
  public:
    /** @param description one-line program description for --help */
    explicit ArgParser(std::string description);

    /** Register an option with a default value and help text. */
    void addOption(const std::string &name, const std::string &def,
                   const std::string &help);

    /** Register a boolean flag (defaults to false). */
    void addFlag(const std::string &name, const std::string &help);

    /**
     * Parse argv. On `--help` prints usage and returns false;
     * on unknown options calls fatal().
     */
    bool parse(int argc, const char *const *argv);

    std::string get(const std::string &name) const;

    /** Numeric option values, parsed as strictly as parseUint()
     *  (getInt() and getDouble() accept a sign). */
    int64_t getInt(const std::string &name) const;
    uint64_t getUint(const std::string &name) const;
    double getDouble(const std::string &name) const;
    bool getFlag(const std::string &name) const;

    /** Comma-separated list option split into entries. */
    std::vector<std::string> getList(const std::string &name) const;

    /**
     * The argv this parser was fed, verbatim (argv[0] included).
     * The distributed-sweep supervisor re-execs itself with this
     * plus per-worker overrides.
     */
    const std::vector<std::string> &rawArgs() const
    {
        return raw_args_;
    }

    /** @return the generated usage text. */
    std::string usage() const;

  private:
    struct Option
    {
        std::string def;
        std::string help;
        bool is_flag;
    };

    std::string description_;
    std::map<std::string, Option> options_;
    std::map<std::string, std::string> values_;
    std::vector<std::string> raw_args_;
    std::string program_ = "prog";
};

} // namespace rlr::util

#endif // RLR_UTIL_ARGS_HH
