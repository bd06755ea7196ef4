/**
 * @file
 * Event-log serialization: one JSON document carrying the event
 * logs of every cell of a sweep, written by the bench harnesses
 * (--events) and consumed by tools/inspect and tests.
 *
 * Layout (version 1):
 *
 *   {
 *     "version": 1,
 *     "cells": [
 *       { "workload": "...", "policy": "...", "seed": N,
 *         "capacity": N, "sample_sets": N, "ways": N,
 *         "recorded": N, "overwritten": N, "sampled_out": N,
 *         "set_accesses": [N, ...], "set_misses": [N, ...],
 *         "events": [ [access_no, kind, type, set, way,
 *                      address, pc, cpu, priority, victim_age,
 *                      victim_hits, victim_recency,
 *                      victim_last_type, reason], ... ] }, ... ]
 *   }
 *
 * Events are compact 14-integer rows (order above, enums by
 * value; see docs/OBSERVABILITY.md) so a 64k-event log stays a
 * few MB. All fields are integers, so same-seed exports are
 * byte-identical.
 */

#ifndef RLR_OBS_EVENTS_IO_HH
#define RLR_OBS_EVENTS_IO_HH

#include <string>
#include <vector>

#include "obs/event_log.hh"

namespace rlr::obs
{

/** One sweep cell's event log, with its identifying labels. */
struct CellEvents
{
    std::string workload;
    std::string policy;
    uint64_t seed = 0;
    EventLogData log;
};

/** Serialize cell logs (layout documented above). */
std::string eventsToJson(const std::vector<CellEvents> &cells);

/**
 * Rebuild cell logs from eventsToJson() output.
 * @throws std::runtime_error on malformed input (bad version,
 *         wrong row arity, out-of-range enum values)
 */
std::vector<CellEvents> eventsFromJson(const std::string &text);

/** Write eventsToJson() to @p path; fatal() on I/O failure. */
void writeEvents(const std::string &path,
                 const std::vector<CellEvents> &cells);

} // namespace rlr::obs

#endif // RLR_OBS_EVENTS_IO_HH
