#include "core/policy_factory.hh"

#include <limits>

#include "core/rlr.hh"
#include "policies/eva.hh"
#include "policies/glider.hh"
#include "policies/hawkeye.hh"
#include "policies/mpppb.hh"
#include "policies/kpc_r.hh"
#include "policies/lru.hh"
#include "policies/pdp.hh"
#include "policies/random.hh"
#include "policies/rrip.hh"
#include "policies/ship.hh"
#include "util/args.hh"
#include "util/logging.hh"

namespace rlr::core
{

std::unique_ptr<cache::ReplacementPolicy>
makePolicy(const std::string &name, uint64_t seed)
{
    using namespace rlr::policies;

    if (name == "LRU")
        return std::make_unique<LruPolicy>();
    if (name == "Random")
        return std::make_unique<RandomPolicy>(seed);
    if (name == "SRRIP")
        return std::make_unique<SrripPolicy>();
    if (name == "BRRIP")
        return std::make_unique<BrripPolicy>(2, seed);
    if (name == "DRRIP")
        return std::make_unique<DrripPolicy>(2, 32, seed);
    if (name == "SHiP")
        return std::make_unique<ShipPolicy>();
    if (name == "SHiP++")
        return std::make_unique<ShipPPPolicy>();
    if (name == "Hawkeye")
        return std::make_unique<HawkeyePolicy>();
    if (name == "Glider")
        return std::make_unique<GliderPolicy>();
    if (name == "MPPPB")
        return std::make_unique<MpppbPolicy>();
    if (name == "KPC-R")
        return std::make_unique<KpcRPolicy>();
    if (name == "EVA")
        return std::make_unique<EvaPolicy>();
    if (name == "PDP")
        return std::make_unique<PdpPolicy>();
    if (name == "RLR")
        return std::make_unique<RlrPolicy>();
    if (name == "RLR-unopt")
        return std::make_unique<RlrPolicy>(RlrConfig::unoptimized());
    if (name == "RLR-mc")
        return std::make_unique<RlrPolicy>(RlrConfig::forMulticore(4));
    if (name == "RLR-nohit") {
        RlrConfig c;
        c.use_hit_priority = false;
        return std::make_unique<RlrPolicy>(c);
    }
    if (name == "RLR-notype") {
        RlrConfig c;
        c.use_type_priority = false;
        return std::make_unique<RlrPolicy>(c);
    }
    if (name == "RLR-bypass") {
        RlrConfig c;
        c.allow_bypass = true;
        return std::make_unique<RlrPolicy>(c);
    }
    // Parameterized spec: "RLR:key=value,key=value,...". Keys:
    //   opt, age, tick, hit, rdmul, rdhits, weight, usehit,
    //   usetype, bypass, mc, cores
    if (name.rfind("RLR:", 0) == 0) {
        RlrConfig c;
        std::string rest = name.substr(4);
        size_t start = 0;
        while (start < rest.size()) {
            size_t comma = rest.find(',', start);
            if (comma == std::string::npos)
                comma = rest.size();
            const std::string kv = rest.substr(start, comma - start);
            const size_t eq = kv.find('=');
            if (eq == std::string::npos)
                util::fatal("bad RLR spec item '{}'", kv);
            const std::string key = kv.substr(0, eq);
            const auto value = static_cast<unsigned>(util::parseUint(
                kv.substr(eq + 1), util::format("RLR spec item '{}'", kv),
                std::numeric_limits<unsigned>::max()));
            if (key == "opt")
                c.optimized = value != 0;
            else if (key == "age")
                c.age_bits = value;
            else if (key == "tick")
                c.age_tick_misses = value;
            else if (key == "hit")
                c.hit_bits = value;
            else if (key == "rdmul")
                c.rd_multiplier = value;
            else if (key == "rdhits")
                c.rd_update_hits = value;
            else if (key == "weight")
                c.age_weight = value;
            else if (key == "usehit")
                c.use_hit_priority = value != 0;
            else if (key == "usetype")
                c.use_type_priority = value != 0;
            else if (key == "bypass")
                c.allow_bypass = value != 0;
            else if (key == "mc")
                c.multicore = value != 0;
            else if (key == "cores")
                c.num_cores = value;
            else
                util::fatal("unknown RLR spec key '{}'", key);
            start = comma + 1;
        }
        return std::make_unique<RlrPolicy>(c);
    }
    util::fatal("unknown replacement policy '{}'", name);
}

std::vector<std::string>
knownPolicies()
{
    return {"LRU",     "Random",    "SRRIP",     "BRRIP",
            "DRRIP",   "SHiP",      "SHiP++",    "Hawkeye",
            "Glider",  "MPPPB",     "KPC-R",     "EVA",
            "PDP",     "RLR",       "RLR-unopt", "RLR-mc",
            "RLR-nohit", "RLR-notype", "RLR-bypass"};
}

std::vector<std::string>
paperPolicies()
{
    // The comparison set of Figures 10-13.
    return {"DRRIP", "KPC-R", "SHiP",   "RLR",
            "RLR-unopt", "Hawkeye", "SHiP++"};
}

} // namespace rlr::core
