// Application event log — the engine's analogue of Spark's event log
// (gated by saex.eventLog.enabled): a flat stream of job/stage/task/resize
// events. The log itself keeps nothing but a count; it fans each event out
// to the attached sinks as it is recorded:
//
//  * JsonLinesSink — one JSON object per line (Spark-history-server style)
//  * ChromeTraceSink — Chrome trace format (chrome://tracing / Perfetto),
//    with one process per node and tasks as complete ("X") events; the
//    quickest way to *see* an adaptive executor throttle its concurrency
//    mid-job
//  * EventBuffer — keeps the records in memory, for tests and benches that
//    inspect them
//
// The stream sinks hold only the tasks in flight, so a run's log costs
// O(in-flight tasks) of memory however long the run is.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "common/units.h"

namespace saex::engine {

enum class EventKind {
  kJobStart,
  kJobEnd,
  kStageStart,
  kStageEnd,
  kTaskStart,
  kTaskEnd,
  kTaskFailed,
  kPoolResize,
  kSpeculativeLaunch,
  // saex::serve (multi-tenant job server) events.
  kJobSubmitted,       // value = admission outcome (serve::Admission)
  kJobRejected,        // value = admission outcome
  kJobDequeued,        // left the admission queue and started running
  kExecutorGranted,    // dynamic allocation activated this executor
  kExecutorReleased,   // dynamic allocation idle-timed-out this executor
  // saex::fault (failure injection and recovery) events.
  kExecutorLost,       // executor killed; node = victim
  kFetchFailed,        // shuffle fetch failed; node = source, value = shuffle
  kStageResubmitted,   // lineage recovery; value = recomputed partitions
  // saex::aqe (adaptive query execution) events.
  kStageReplanned,     // AQE re-tiled a reduce stage; value = new task count
  kDiskDegraded,       // slow-node injection; value = factor in percent
  // saex::resilience (deadlines, retries, node health) events.
  kExecutorRevived,    // chaos rejoin; node = fresh executor's node id
  kNodeQuarantined,    // health breaker opened; node = quarantined node
  kNodeReinstated,     // breaker half-open; node is schedulable (probing)
  kJobShed,            // queued job's deadline lapsed before it started
  kJobCancelled,       // running job cancelled at its deadline
  kJobRetried,         // failed job re-enqueued; value = retry attempt
};

std::string_view event_kind_name(EventKind kind) noexcept;

struct Event {
  EventKind kind{};
  double time = 0.0;     // simulated seconds
  int job = -1;
  int stage = -1;        // application stage ordinal
  int partition = -1;
  int node = -1;
  int64_t value = 0;     // kind-specific: threads for resizes, bytes for tasks
  std::string label;     // stage/app name where useful
};

/// Receives every recorded event, in record order. Sinks only observe: the
/// simulation never reads anything back from them, so attaching one never
/// changes a report. A log holds its sinks by address, so they neither copy
/// nor move.
class EventSink {
 public:
  EventSink() = default;
  EventSink(const EventSink&) = delete;
  EventSink& operator=(const EventSink&) = delete;
  virtual ~EventSink() = default;
  virtual void on_event(const Event& event) = 0;
};

/// Writes one JSON object per event, one per line. The stream must outlive
/// the sink.
class JsonLinesSink final : public EventSink {
 public:
  explicit JsonLinesSink(std::ostream& out) : out_(&out) {}
  void on_event(const Event& event) override;

 private:
  std::ostream* out_;
};

/// Writes a Chrome trace JSON array: "[" when constructed, "]\n" on close().
/// Tasks become duration events grouped by node (each end is paired with the
/// most recent open start of the same stage/partition/node); pool resizes
/// become counter events so the thread-count staircase is visible on the
/// timeline. The stream must outlive the sink.
class ChromeTraceSink final : public EventSink {
 public:
  explicit ChromeTraceSink(std::ostream& out);
  /// Closes the array if close() was not called.
  ~ChromeTraceSink() override { close(); }

  void on_event(const Event& event) override;
  /// Writes the closing "]\n"; later calls and later events are ignored.
  void close();
  /// Task starts not yet paired with an end.
  size_t open_tasks() const noexcept { return open_.size(); }

 private:
  void emit(const std::string& object);

  using TaskKey = std::tuple<int, int, int>;  // stage, partition, node
  std::ostream* out_;
  bool first_ = true;
  bool closed_ = false;
  // Open task starts; a key's equal range is its stack of start times, in
  // start order (multimap inserts equal keys at the back).
  std::multimap<TaskKey, double> open_;
};

/// Keeps every event in memory, for tests and benches that inspect them.
class EventBuffer final : public EventSink {
 public:
  void on_event(const Event& event) override { events_.push_back(event); }

  const std::vector<Event>& events() const noexcept { return events_; }
  size_t size() const noexcept { return events_.size(); }

  /// Events of one kind, in order.
  std::vector<Event> of_kind(EventKind kind) const;

  /// The buffered events replayed through a JsonLinesSink.
  std::string to_json_lines() const;
  /// The buffered events replayed through a ChromeTraceSink.
  std::string to_chrome_trace() const;

 private:
  std::vector<Event> events_;
};

class EventLog {
 public:
  void record(const Event& event) {
    if (!enabled_) return;
    ++records_;
    for (EventSink* sink : sinks_) sink->on_event(event);
  }

  /// Sinks are not owned; each must outlive the log.
  void attach(EventSink& sink) { sinks_.push_back(&sink); }

  /// saex.eventLog.enabled. Disabled, record() is a no-op: no sink sees an
  /// event and size() stays 0.
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
  bool enabled() const noexcept { return enabled_; }

  /// Events recorded so far (whether or not any sink was attached).
  size_t size() const noexcept { return records_; }

 private:
  std::vector<EventSink*> sinks_;
  size_t records_ = 0;
  bool enabled_ = true;
};

}  // namespace saex::engine
