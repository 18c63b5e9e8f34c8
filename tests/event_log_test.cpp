#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <tuple>
#include <utility>

#include "common/format.h"
#include "engine/context.h"
#include "engine/event_log.h"
#include "serve/job_server.h"
#include "serve/trace.h"
#include "workloads/workloads.h"

namespace saex::engine {
namespace {

TEST(EventLog, RecordsAndFiltersByKind) {
  EventLog log;
  EventBuffer buffer;
  log.attach(buffer);
  log.record(Event{EventKind::kJobStart, 0.0, 1, -1, -1, -1, 0, "app"});
  log.record(Event{EventKind::kTaskStart, 0.5, 1, 0, 3, 2, 128, ""});
  log.record(Event{EventKind::kTaskEnd, 1.5, 1, 0, 3, 2, 128, ""});
  log.record(Event{EventKind::kJobEnd, 2.0, 1, -1, -1, -1, 0, "app"});
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(buffer.of_kind(EventKind::kTaskStart).size(), 1u);
  EXPECT_EQ(buffer.of_kind(EventKind::kPoolResize).size(), 0u);
}

TEST(EventLog, CountsRecordsWithOrWithoutSinks) {
  EventBuffer buffer;
  EventLog log;
  log.record(Event{EventKind::kJobStart, 0.0, 1, -1, -1, -1, 0, "app"});
  log.attach(buffer);
  log.record(Event{EventKind::kJobEnd, 1.0, 1, -1, -1, -1, 0, "app"});
  EXPECT_EQ(log.size(), 2u);  // every record counts, sink or not
  ASSERT_EQ(buffer.size(), 1u);
  EXPECT_EQ(buffer.events()[0].kind, EventKind::kJobEnd);
}

TEST(EventLog, JsonLinesAreOnePerEvent) {
  EventBuffer log;
  log.on_event(Event{EventKind::kStageStart, 1.25, 0, 2, -1, -1, 16, "map"});
  log.on_event(Event{EventKind::kPoolResize, 2.5, -1, -1, -1, 3, 8, ""});
  const std::string json = log.to_json_lines();
  EXPECT_EQ(std::count(json.begin(), json.end(), '\n'), 2);
  EXPECT_NE(json.find(R"("event":"StageStart")"), std::string::npos);
  EXPECT_NE(json.find(R"("value":8)"), std::string::npos);
  EXPECT_NE(json.find(R"("label":"map")"), std::string::npos);
}

TEST(EventLog, JsonEscapesLabels) {
  EventBuffer log;
  log.on_event(Event{EventKind::kStageStart, 0, 0, 0, -1, -1, 0,
                     "weird \"name\"\nwith\tstuff"});
  const std::string json = log.to_json_lines();
  EXPECT_NE(json.find(R"(weird \"name\"\nwith\tstuff)"), std::string::npos);
}

// JSON's \uXXXX takes four hex digits: 0x1f is \u001f, not 1 ('1').
TEST(EventLog, JsonEscapesControlCharactersAsHex) {
  EventBuffer log;
  log.on_event(Event{EventKind::kStageStart, 0, 0, 0, -1, -1, 0,
                     std::string("a\x01" "b\x0b" "c\x1f" "d")});
  const std::string json = log.to_json_lines();
  EXPECT_NE(json.find(R"("label":"a\u0001b\u000bc\u001fd")"),
            std::string::npos)
      << json;
  const std::string trace = log.to_chrome_trace();
  EXPECT_NE(trace.find(R"("name":"a\u0001b\u000bc\u001fd")"),
            std::string::npos)
      << trace;
}

TEST(EventLog, ChromeTracePairsTasksAndEmitsCounters) {
  EventBuffer log;
  log.on_event(Event{EventKind::kTaskStart, 1.0, 0, 0, 7, 2, 0, ""});
  log.on_event(Event{EventKind::kPoolResize, 1.5, -1, -1, -1, 2, 4, ""});
  log.on_event(Event{EventKind::kTaskEnd, 3.0, 0, 0, 7, 2, 0, ""});
  const std::string trace = log.to_chrome_trace();
  EXPECT_EQ(trace.front(), '[');
  // 2-second task -> dur 2000000 us.
  EXPECT_NE(trace.find(R"("dur":2000000.0)"), std::string::npos);
  EXPECT_NE(trace.find(R"("ph":"C")"), std::string::npos);
  EXPECT_NE(trace.find(R"("name":"s0-p7")"), std::string::npos);
}

// (partition 0, node 256) and (partition 1, node 0) once shared one packed
// pairing key, so an end could pick up the other task's start.
TEST(EventLog, ChromeTracePairsTasksOnNodesAbove255) {
  EventBuffer log;
  log.on_event(Event{EventKind::kTaskStart, 1.0, 0, 0, 0, 256, 0, ""});
  log.on_event(Event{EventKind::kTaskStart, 2.0, 0, 0, 1, 0, 0, ""});
  log.on_event(Event{EventKind::kTaskEnd, 5.0, 0, 0, 0, 256, 0, ""});
  log.on_event(Event{EventKind::kTaskEnd, 6.0, 0, 0, 1, 0, 0, ""});
  const std::string trace = log.to_chrome_trace();
  EXPECT_NE(
      trace.find(
          R"({"name":"s0-p0","cat":"task","ph":"X","ts":1000000.0,"dur":4000000.0,"pid":256,"tid":0})"),
      std::string::npos)
      << trace;
  EXPECT_NE(
      trace.find(
          R"({"name":"s0-p1","cat":"task","ph":"X","ts":2000000.0,"dur":4000000.0,"pid":0,"tid":1})"),
      std::string::npos)
      << trace;
}

TEST(EventLog, ChromeTraceSinkClosesTheArrayOnce) {
  std::ostringstream out;
  {
    ChromeTraceSink sink(out);
    EXPECT_EQ(out.str(), "[");
    sink.on_event(Event{EventKind::kJobEnd, 1.0, 0, -1, -1, -1, 0, ""});
    sink.close();
    sink.on_event(Event{EventKind::kJobEnd, 2.0, 0, -1, -1, -1, 0, ""});
  }  // the destructor must not close it again
  EXPECT_EQ(out.str(), "[{\"ph\":\"E\",\"ts\":1000000.0,\"pid\":0,\"tid\":0}]\n");
}

TEST(EventLog, WriteFileRoundTrips) {
  const std::string path = "/tmp/saex-eventlog-test.json";
  {
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(file);
    JsonLinesSink sink(file);
    EventLog log;
    log.attach(sink);
    log.record(Event{EventKind::kJobStart, 0.0, 0, -1, -1, -1, 0, "x"});
  }
  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[256] = {};
  const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_GT(n, 10u);
  EXPECT_NE(std::string(buf).find("JobStart"), std::string::npos);
}

TEST(EventLog, EngineProducesACoherentLog) {
  hw::Cluster cluster(hw::ClusterSpec::das5(2));
  conf::Config config;
  config.set("spark.default.parallelism", "8");
  EventBuffer log;
  SparkContext ctx(cluster, config);
  ctx.event_log().attach(log);
  ctx.dfs().load_input("/in", mib(512), 2);
  (void)ctx.run_job(ctx.text_file("/in")
                        .reduce_by_key("g", {0.01, 1.0}, 1.0)
                        .count(),
                    "logged");

  EXPECT_EQ(log.of_kind(EventKind::kJobStart).size(), 1u);
  EXPECT_EQ(log.of_kind(EventKind::kJobEnd).size(), 1u);
  EXPECT_EQ(log.of_kind(EventKind::kStageStart).size(), 2u);
  EXPECT_EQ(log.of_kind(EventKind::kStageEnd).size(), 2u);
  // 4 map tasks (512 MiB / 128 MiB blocks) + 8 reduce tasks.
  EXPECT_EQ(log.of_kind(EventKind::kTaskStart).size(), 12u);
  EXPECT_EQ(log.of_kind(EventKind::kTaskEnd).size(), 12u);
  EXPECT_TRUE(log.of_kind(EventKind::kTaskFailed).empty());

  // Starts precede their ends, times are monotone within kinds.
  const auto starts = log.of_kind(EventKind::kTaskStart);
  const auto ends = log.of_kind(EventKind::kTaskEnd);
  for (size_t i = 0; i < starts.size(); ++i) {
    EXPECT_LE(starts[i].time, ends[i].time);
  }
}

TEST(EventLog, DisabledViaConfigRecordsNothing) {
  hw::Cluster cluster(hw::ClusterSpec::das5(2));
  conf::Config config;
  config.set("spark.default.parallelism", "8");
  config.set_bool("saex.eventLog.enabled", false);
  EventBuffer buffer;
  SparkContext ctx(cluster, config);
  ctx.event_log().attach(buffer);
  EXPECT_FALSE(ctx.event_log().enabled());
  ctx.dfs().load_input("/in", mib(512), 2);
  (void)ctx.run_job(ctx.text_file("/in").count(), "unlogged");
  // Disabled, no sink sees an event and the count stays 0, no matter how
  // much runs.
  EXPECT_EQ(ctx.event_log().size(), 0u);
  EXPECT_EQ(buffer.size(), 0u);
}

TEST(EventLog, DynamicPolicyEmitsResizeEvents) {
  hw::Cluster cluster(hw::ClusterSpec::das5(2));
  conf::Config config;
  config.set("saex.executor.policy", "dynamic");
  EventBuffer log;
  SparkContext ctx(cluster, config);
  ctx.event_log().attach(log);
  ctx.dfs().load_input("/in", gib(4), 2);
  (void)ctx.run_job(ctx.text_file("/in").save_as_text_file("/out"), "resizes");
  // At minimum: the stage-start reset to c_min on both executors.
  EXPECT_GE(log.of_kind(EventKind::kPoolResize).size(), 2u);
}

// ---------- streamed output vs the buffered exporters it replaced ----------
//
// Reference oracle: the whole-log exporters as they were before the log
// streamed (a reverse scan over every open task start, rebuilt per export),
// with two fixes carried over: control characters are escaped as four hex
// digits, and tasks pair on the exact (stage, partition, node), where a
// packed 64-bit key once let node ids >= 256 collide.

std::string ref_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<int>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string ref_json_lines(const std::vector<Event>& events) {
  std::ostringstream out;
  for (const Event& e : events) {
    out << strfmt::format(
        R"({{"event":"{}","time":{:.6f},"job":{},"stage":{},"partition":{},"node":{},"value":{},"label":"{}"}})",
        std::string(event_kind_name(e.kind)), e.time, e.job, e.stage,
        e.partition, e.node, e.value, ref_escape(e.label));
    out << '\n';
  }
  return out.str();
}

std::string ref_chrome_trace(const std::vector<Event>& events) {
  std::ostringstream out;
  out << "[";
  bool first = true;
  auto emit = [&](const std::string& obj) {
    if (!first) out << ",\n";
    first = false;
    out << obj;
  };
  using Key = std::tuple<int, int, int>;
  std::vector<std::pair<Key, double>> open_tasks;  // key -> start time
  auto task_key = [](const Event& e) {
    return Key{e.stage, e.partition, e.node};
  };
  for (const Event& e : events) {
    const double us = e.time * 1e6;
    switch (e.kind) {
      case EventKind::kTaskStart:
        open_tasks.emplace_back(task_key(e), e.time);
        break;
      case EventKind::kTaskEnd:
      case EventKind::kTaskFailed: {
        double start = e.time;
        const Key key = task_key(e);
        for (auto it = open_tasks.rbegin(); it != open_tasks.rend(); ++it) {
          if (it->first == key) {
            start = it->second;
            open_tasks.erase(std::next(it).base());
            break;
          }
        }
        emit(strfmt::format(
            R"({{"name":"s{}-p{}","cat":"task","ph":"X","ts":{:.1f},"dur":{:.1f},"pid":{},"tid":{}}})",
            e.stage, e.partition, start * 1e6, (e.time - start) * 1e6, e.node,
            e.partition % 64));
        break;
      }
      case EventKind::kPoolResize:
        emit(strfmt::format(
            R"({{"name":"pool size","ph":"C","ts":{:.1f},"pid":{},"args":{{"threads":{}}}}})",
            us, e.node, e.value));
        break;
      case EventKind::kStageStart:
      case EventKind::kJobStart:
        emit(strfmt::format(
            R"({{"name":"{}","cat":"stage","ph":"B","ts":{:.1f},"pid":0,"tid":0}})",
            ref_escape(e.label.empty() ? std::string(event_kind_name(e.kind))
                                       : e.label),
            us));
        break;
      case EventKind::kStageEnd:
      case EventKind::kJobEnd:
        emit(strfmt::format(R"({{"ph":"E","ts":{:.1f},"pid":0,"tid":0}})", us));
        break;
      case EventKind::kSpeculativeLaunch:
        emit(strfmt::format(
            R"({{"name":"speculative s{}-p{}","ph":"i","ts":{:.1f},"pid":{},"tid":0,"s":"p"}})",
            e.stage, e.partition, us, e.node));
        break;
      case EventKind::kExecutorGranted:
      case EventKind::kExecutorReleased:
      case EventKind::kExecutorLost:
      case EventKind::kStageResubmitted:
      case EventKind::kStageReplanned:
      case EventKind::kDiskDegraded:
      case EventKind::kExecutorRevived:
      case EventKind::kNodeQuarantined:
      case EventKind::kNodeReinstated:
        emit(strfmt::format(
            R"({{"name":"{}","ph":"i","ts":{:.1f},"pid":{},"tid":0,"s":"p"}})",
            std::string(event_kind_name(e.kind)), us, e.node));
        break;
      case EventKind::kJobSubmitted:
      case EventKind::kJobRejected:
      case EventKind::kJobDequeued:
      case EventKind::kFetchFailed:
      case EventKind::kJobShed:
      case EventKind::kJobCancelled:
      case EventKind::kJobRetried:
        break;
    }
  }
  out << "]\n";
  return out.str();
}

// Every sink at once on one log: the streamed files plus a buffer to feed
// the oracle. Declared before the context whose log it is attached to, so
// it outlives that log.
struct AllSinks {
  void attach(EventLog& log) {
    log.attach(buffer);
    log.attach(json_sink);
    log.attach(trace_sink);
  }
  std::string json() const { return json_out.str(); }
  std::string trace() {
    trace_sink.close();
    return trace_out.str();
  }
  /// Streamed output == reference over the buffered records, and the
  /// buffer's own replaying exporters agree with both.
  void expect_matches_reference() {
    const std::string streamed_trace = trace();
    EXPECT_EQ(json(), ref_json_lines(buffer.events()));
    EXPECT_EQ(streamed_trace, ref_chrome_trace(buffer.events()));
    EXPECT_EQ(buffer.to_json_lines(), json());
    EXPECT_EQ(buffer.to_chrome_trace(), streamed_trace);
  }

  EventBuffer buffer;
  std::ostringstream json_out;
  std::ostringstream trace_out;
  JsonLinesSink json_sink{json_out};
  ChromeTraceSink trace_sink{trace_out};
};

TEST(EventLogStreaming, MatchesReferenceOnSeededRandomEvents) {
  std::mt19937_64 rng(20190922);
  const std::vector<std::string> labels = {
      "", "map", "reduce \"q\"", "back\\slash", "nl\nx", "tab\tx",
      std::string("ctl\x01\x0b\x1f"), "\x7f" "del"};
  const std::vector<int> nodes = {0, 1, 3, 255, 256, 257, 511, 4096};
  constexpr int kKinds = static_cast<int>(EventKind::kJobRetried) + 1;
  auto pick = [&](int n) {
    return static_cast<int>(rng() % static_cast<uint64_t>(n));
  };

  AllSinks sinks;
  EventLog log;
  sinks.attach(log);
  double t = 0.0;
  for (int i = 0; i < 5000; ++i) {
    Event e;
    // Task starts/ends dominate, on few keys, so that the same task key is
    // often open several times over (re-attempts, speculative copies).
    const int roll = pick(10);
    e.kind = roll < 4   ? EventKind::kTaskStart
             : roll < 7 ? (pick(5) == 0 ? EventKind::kTaskFailed
                                        : EventKind::kTaskEnd)
                        : static_cast<EventKind>(pick(kKinds));
    t += static_cast<double>(pick(1000)) * 1e-3;
    e.time = t;
    e.job = pick(4) - 1;
    e.stage = pick(3);
    e.partition = pick(6);
    e.node = nodes[static_cast<size_t>(pick(static_cast<int>(nodes.size())))];
    e.value = static_cast<int64_t>(rng() % 100000) - 50;
    e.label = labels[static_cast<size_t>(pick(static_cast<int>(labels.size())))];
    log.record(e);
  }
  EXPECT_EQ(log.size(), 5000u);
  EXPECT_EQ(sinks.buffer.size(), 5000u);
  sinks.expect_matches_reference();
}

TEST(EventLogStreaming, MatchesReferenceOnATerasortRun) {
  hw::Cluster cluster(hw::ClusterSpec::das5(4));
  conf::Config config;
  config.set("saex.executor.policy", "dynamic");
  config.set_int("spark.default.parallelism", 32);
  AllSinks sinks;
  SparkContext ctx(cluster, config);
  sinks.attach(ctx.event_log());
  const workloads::WorkloadSpec spec = workloads::terasort(gib(2));
  for (const Rdd& action : spec.build(ctx)) (void)ctx.run_job(action, spec.name);

  EXPECT_GT(sinks.buffer.of_kind(EventKind::kTaskEnd).size(), 0u);
  EXPECT_EQ(sinks.trace_sink.open_tasks(), 0u);
  EXPECT_EQ(ctx.event_log().size(), sinks.buffer.size());
  sinks.expect_matches_reference();
}

conf::Config serve_config() {
  conf::Config c;
  c.set("spark.default.parallelism", "16");
  return c;
}

serve::TraceOptions serve_trace(int jobs) {
  serve::TraceOptions t;
  t.num_jobs = jobs;
  t.mean_interarrival = 1.0;
  t.seed = 7;
  t.small_input = mib(256);
  t.big_input = mib(512);
  t.dim_input = mib(128);
  return t;
}

conf::Config chaos_config() {
  conf::Config c = serve_config();
  c.set_bool("saex.fault.enabled", true);
  c.set("saex.fault.chaos", "kill:1@2,rejoin:1@10");
  c.set_double("saex.fault.fetchFailProb", 0.05);
  return c;
}

conf::Config dynalloc_config() {
  conf::Config c = serve_config();
  c.set("spark.dynamicAllocation.enabled", "true");
  c.set("spark.dynamicAllocation.minExecutors", "1");
  c.set("spark.dynamicAllocation.initialExecutors", "1");
  c.set("spark.dynamicAllocation.executorIdleTimeout", "2s");
  c.set("spark.dynamicAllocation.schedulerBacklogTimeout", "500ms");
  c.set("spark.dynamicAllocation.sustainedSchedulerBacklogTimeout", "500ms");
  return c;
}

TEST(EventLogStreaming, MatchesReferenceOnAChaosServeRun) {
  hw::Cluster cluster(hw::ClusterSpec::das5(4));
  AllSinks sinks;
  SparkContext ctx(cluster, chaos_config());
  sinks.attach(ctx.event_log());
  serve::JobServer server(ctx);
  const serve::TraceOptions t = serve_trace(12);
  (void)server.replay(serve::make_trace(t), t);

  EXPECT_EQ(sinks.buffer.of_kind(EventKind::kExecutorLost).size(), 1u);
  EXPECT_EQ(sinks.buffer.of_kind(EventKind::kExecutorRevived).size(), 1u);
  EXPECT_GT(sinks.buffer.of_kind(EventKind::kFetchFailed).size(), 0u);
  EXPECT_EQ(ctx.event_log().size(), sinks.buffer.size());
  sinks.expect_matches_reference();
}

TEST(EventLogStreaming, MatchesReferenceOnADynallocServeRun) {
  hw::Cluster cluster(hw::ClusterSpec::das5(4));
  AllSinks sinks;
  SparkContext ctx(cluster, dynalloc_config());
  sinks.attach(ctx.event_log());
  serve::JobServer server(ctx);
  const serve::TraceOptions t = serve_trace(8);
  (void)server.replay(serve::make_trace(t), t);

  EXPECT_GT(sinks.buffer.of_kind(EventKind::kExecutorGranted).size(), 0u);
  EXPECT_EQ(sinks.trace_sink.open_tasks(), 0u);
  EXPECT_EQ(ctx.event_log().size(), sinks.buffer.size());
  sinks.expect_matches_reference();
}

// Sinks only observe: a run with all three attached reports the same bits
// as one with none.
TEST(EventLogStreaming, SinksNeverChangeAJobReport) {
  auto run = [](bool with_sinks) {
    hw::Cluster cluster(hw::ClusterSpec::das5(4));
    conf::Config config;
    config.set("saex.executor.policy", "dynamic");
    config.set_int("spark.default.parallelism", 32);
    AllSinks sinks;
    SparkContext ctx(cluster, config);
    if (with_sinks) sinks.attach(ctx.event_log());
    const workloads::WorkloadSpec spec = workloads::terasort(gib(2));
    std::vector<JobReport> reports;
    for (const Rdd& action : spec.build(ctx)) {
      reports.push_back(ctx.run_job(action, spec.name));
    }
    return std::make_pair(reports, ctx.event_log().size());
  };
  const auto [bare, bare_count] = run(false);
  const auto [sunk, sunk_count] = run(true);
  EXPECT_EQ(bare_count, sunk_count);
  ASSERT_EQ(bare.size(), sunk.size());
  for (size_t i = 0; i < bare.size(); ++i) {
    EXPECT_EQ(bare[i].total_runtime, sunk[i].total_runtime);
    EXPECT_EQ(bare[i].events_processed, sunk[i].events_processed);
    EXPECT_EQ(bare[i].total_disk_bytes, sunk[i].total_disk_bytes);
    EXPECT_EQ(bare[i].render(), sunk[i].render());
    EXPECT_EQ(bare[i].to_csv(), sunk[i].to_csv());
  }
}

TEST(EventLogStreaming, SinksNeverChangeAServeReport) {
  for (const bool chaos : {true, false}) {
    auto run = [chaos](bool with_sinks) {
      hw::Cluster cluster(hw::ClusterSpec::das5(4));
      AllSinks sinks;
      SparkContext ctx(cluster, chaos ? chaos_config() : dynalloc_config());
      if (with_sinks) sinks.attach(ctx.event_log());
      serve::JobServer server(ctx);
      const serve::TraceOptions t = serve_trace(chaos ? 12 : 8);
      return server.replay(serve::make_trace(t), t);
    };
    const serve::ServeReport bare = run(false);
    const serve::ServeReport sunk = run(true);
    EXPECT_EQ(bare.render(), sunk.render()) << "chaos=" << chaos;
    EXPECT_EQ(bare.render_jobs(), sunk.render_jobs());
    ASSERT_EQ(bare.jobs.size(), sunk.jobs.size());
    for (size_t i = 0; i < bare.jobs.size(); ++i) {
      EXPECT_EQ(bare.jobs[i].submit_time, sunk.jobs[i].submit_time);
      EXPECT_EQ(bare.jobs[i].start_time, sunk.jobs[i].start_time);
      EXPECT_EQ(bare.jobs[i].finish_time, sunk.jobs[i].finish_time);
      EXPECT_EQ(bare.jobs[i].retry_times, sunk.jobs[i].retry_times);
    }
  }
}

}  // namespace
}  // namespace saex::engine
