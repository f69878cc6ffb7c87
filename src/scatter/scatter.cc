#include "scatter/scatter.h"

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace hepq::scatter {

ShardRange ShardRangeFor(int num_files, int num_workers, int worker) {
  ShardRange range;
  const int64_t f = num_files;
  range.begin = static_cast<int>(worker * f / num_workers);
  range.end = static_cast<int>((worker + 1) * f / num_workers);
  return range;
}

namespace {

Status WriteAll(int fd, const uint8_t* data, size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("scatter worker cannot write frame: " +
                             std::string(std::strerror(errno)));
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Parsed HEPQ_SCATTER_FAULT directive (test-only fault injection).
struct FaultSpec {
  enum class Kind { kNone, kKillBefore, kTruncate, kBadVersion, kBadReport };
  Kind kind = Kind::kNone;
  int shard = -1;
};

FaultSpec ParseFault() {
  FaultSpec fault;
  const char* env = std::getenv("HEPQ_SCATTER_FAULT");
  if (env == nullptr || env[0] == '\0') return fault;
  const std::string spec = env;
  if (spec == "badreport") {
    fault.kind = FaultSpec::Kind::kBadReport;
    return fault;
  }
  const size_t colon = spec.find(':');
  if (colon == std::string::npos) return fault;
  const std::string kind = spec.substr(0, colon);
  fault.shard = std::atoi(spec.c_str() + colon + 1);
  if (kind == "kill_before") {
    fault.kind = FaultSpec::Kind::kKillBefore;
  } else if (kind == "truncate") {
    fault.kind = FaultSpec::Kind::kTruncate;
  } else if (kind == "badversion") {
    fault.kind = FaultSpec::Kind::kBadVersion;
  }
  return fault;
}

}  // namespace

Status RunWorker(
    const std::vector<std::string>& files, ShardRange range,
    const std::function<Result<queries::QueryRunOutput>(const std::string&)>&
        run,
    int fd, const std::function<std::vector<uint8_t>()>& report_payload) {
  const FaultSpec fault = ParseFault();
  for (int shard = range.begin; shard < range.end; ++shard) {
    if (fault.shard == shard) {
      if (fault.kind == FaultSpec::Kind::kKillBefore) {
        // Simulate a crash: no error frame, no exit handlers, just gone.
        ::_exit(1);
      }
    }
    Result<queries::QueryRunOutput> output =
        run(files[static_cast<size_t>(shard)]);
    if (!output.ok()) {
      const std::string message =
          "shard " + std::to_string(shard) + " ('" +
          files[static_cast<size_t>(shard)] +
          "') failed: " + output.status().message();
      const std::vector<uint8_t> frame = EncodeFrame(
          FrameType::kError, EncodeErrorPayload(shard, message));
      HEPQ_RETURN_NOT_OK(WriteAll(fd, frame.data(), frame.size()));
      return output.status();
    }
    ShardFragment fragment;
    fragment.file_index = shard;
    fragment.output = std::move(*output);
    std::vector<uint8_t> frame =
        EncodeFrame(FrameType::kFragment, EncodeFragmentPayload(fragment));
    if (fault.shard == shard) {
      if (fault.kind == FaultSpec::Kind::kTruncate) {
        HEPQ_RETURN_NOT_OK(WriteAll(fd, frame.data(), frame.size() / 2));
        ::_exit(1);
      }
      if (fault.kind == FaultSpec::Kind::kBadVersion) {
        // Version is the second u32 of the header.
        const uint32_t bogus = kFrameVersion + 41;
        std::memcpy(frame.data() + 4, &bogus, sizeof(bogus));
        HEPQ_RETURN_NOT_OK(WriteAll(fd, frame.data(), frame.size()));
        ::_exit(1);
      }
    }
    HEPQ_RETURN_NOT_OK(WriteAll(fd, frame.data(), frame.size()));
  }
  if (report_payload == nullptr) return Status::OK();
  std::vector<uint8_t> frame =
      EncodeFrame(FrameType::kReport, report_payload());
  if (fault.kind == FaultSpec::Kind::kBadReport && frame.size() > 24) {
    // Flip one payload byte so the frame CRC fails at the coordinator —
    // the lost-report degradation path, with the histograms intact.
    frame[24] ^= 0xff;
  }
  return WriteAll(fd, frame.data(), frame.size());
}

WorkerStream ParseWorkerStream(const uint8_t* data, size_t size) {
  WorkerStream stream;
  size_t pos = 0;
  while (pos < size) {
    Frame frame;
    size_t consumed = 0;
    Result<bool> complete = TryParseFrame(data + pos, size - pos, &frame,
                                          &consumed);
    if (!complete.ok()) {
      stream.parse_error = complete.status();
      return stream;
    }
    if (!*complete) {
      // Trailing bytes with no full frame: the worker died mid-write.
      stream.parse_error =
          Status::Corruption("scatter worker stream ends mid-frame");
      return stream;
    }
    pos += consumed;
    switch (frame.type) {
      case FrameType::kFragment: {
        Result<ShardFragment> fragment = DecodeFragmentPayload(frame.payload);
        if (!fragment.ok()) {
          stream.parse_error = fragment.status();
          return stream;
        }
        stream.fragments.push_back(std::move(*fragment));
        break;
      }
      case FrameType::kError: {
        int shard = -1;
        std::string message;
        Status s = DecodeErrorPayload(frame.payload, &shard, &message);
        if (!s.ok()) {
          stream.parse_error = s;
          return stream;
        }
        stream.errors.emplace_back(shard, message);
        break;
      }
      case FrameType::kReport: {
        // A report that fails to decode (future schema drift) is dropped,
        // not fatal: observability frames must never doom the result.
        Result<obs::SessionCapture> report =
            DecodeReportPayload(frame.payload);
        if (report.ok()) stream.reports.push_back(std::move(*report));
        break;
      }
    }
  }
  return stream;
}

Result<std::vector<ShardFragment>> CombineWorkerStreams(
    const std::vector<WorkerStream>& streams,
    const std::vector<std::string>& files) {
  const int num_files = static_cast<int>(files.size());
  std::vector<const ShardFragment*> by_shard(
      static_cast<size_t>(num_files), nullptr);
  // Shard-indexed error ledger, so the verdict below depends only on
  // which shards failed and how — never on which worker held them.
  std::vector<std::string> shard_errors(static_cast<size_t>(num_files));
  for (const WorkerStream& stream : streams) {
    for (const ShardFragment& fragment : stream.fragments) {
      if (fragment.file_index < 0 || fragment.file_index >= num_files) {
        return Status::Corruption(
            "scatter fragment for out-of-range shard " +
            std::to_string(fragment.file_index));
      }
      if (by_shard[static_cast<size_t>(fragment.file_index)] != nullptr) {
        return Status::Corruption("duplicate scatter fragment for shard " +
                                  std::to_string(fragment.file_index));
      }
      by_shard[static_cast<size_t>(fragment.file_index)] = &fragment;
    }
    for (const auto& [shard, message] : stream.errors) {
      if (shard >= 0 && shard < num_files &&
          shard_errors[static_cast<size_t>(shard)].empty()) {
        shard_errors[static_cast<size_t>(shard)] = message;
      }
    }
    if (!stream.parse_error.ok()) {
      // A malformed stream dooms the shard right after the stream's last
      // whole fragment (workers emit fragments in shard order), or the
      // first shard of the worker's range when nothing parsed — so the
      // attribution is by shard, never by worker.
      int next = stream.range.begin - 1;
      for (const ShardFragment& fragment : stream.fragments) {
        next = std::max(next, fragment.file_index);
      }
      ++next;
      if (next < num_files &&
          shard_errors[static_cast<size_t>(next)].empty() &&
          by_shard[static_cast<size_t>(next)] == nullptr) {
        shard_errors[static_cast<size_t>(next)] =
            "shard " + std::to_string(next) + " ('" +
            files[static_cast<size_t>(next)] +
            "'): " + stream.parse_error.message();
      }
    }
  }
  // First-error determinism: report the smallest shard without a
  // fragment, with the most specific message available for it.
  for (int shard = 0; shard < num_files; ++shard) {
    if (by_shard[static_cast<size_t>(shard)] != nullptr) continue;
    if (!shard_errors[static_cast<size_t>(shard)].empty()) {
      return Status::IoError("scatter worker failed: " +
                             shard_errors[static_cast<size_t>(shard)]);
    }
    return Status::IoError(
        "scatter worker exited before completing shard " +
        std::to_string(shard) + " ('" + files[static_cast<size_t>(shard)] +
        "')");
  }
  std::vector<ShardFragment> fragments;
  fragments.reserve(static_cast<size_t>(num_files));
  for (int shard = 0; shard < num_files; ++shard) {
    fragments.push_back(*by_shard[static_cast<size_t>(shard)]);
  }
  return fragments;
}

Result<queries::QueryRunOutput> MergeShardOutputs(
    const std::vector<ShardFragment>& fragments) {
  if (fragments.empty()) {
    return Status::Invalid("no shard fragments to merge");
  }
  queries::QueryRunOutput total;
  // Zero-initialized histograms from shard 0's specs: the same starting
  // point as the in-process run's result histograms, so folding per-shard
  // subtotals in shard order reproduces its FP association exactly.
  for (const Histogram1D& h : fragments[0].output.histograms) {
    total.histograms.emplace_back(h.spec());
  }
  for (const ShardFragment& fragment : fragments) {
    const queries::QueryRunOutput& o = fragment.output;
    if (o.histograms.size() != total.histograms.size()) {
      return Status::Invalid("shard " + std::to_string(fragment.file_index) +
                             " carries a different histogram count");
    }
    for (size_t h = 0; h < total.histograms.size(); ++h) {
      HEPQ_RETURN_NOT_OK(total.histograms[h].Merge(o.histograms[h]));
    }
    total.events_processed += o.events_processed;
    total.ops += o.ops;
    total.cpu_seconds += o.cpu_seconds;
    total.wall_seconds = std::max(total.wall_seconds, o.wall_seconds);
    total.scan.Add(o.scan);
  }
  return total;
}

Result<queries::QueryRunOutput> RunScattered(
    const std::vector<std::string>& files, int num_workers,
    const std::function<std::vector<std::string>(ShardRange)>& make_argv,
    std::vector<obs::ProcessReport>* reports) {
  if (files.empty()) return Status::Invalid("scatter over an empty dataset");
  if (num_workers < 1) num_workers = 1;

  struct Worker {
    pid_t pid = -1;
    int fd = -1;
    ShardRange range;
    std::vector<uint8_t> buffer;
  };
  std::vector<Worker> workers;
  for (int w = 0; w < num_workers; ++w) {
    const ShardRange range =
        ShardRangeFor(static_cast<int>(files.size()), num_workers, w);
    if (range.size() == 0) continue;  // more workers than shards
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) {
      return Status::IoError("cannot create scatter pipe: " +
                             std::string(std::strerror(errno)));
    }
    const std::vector<std::string> argv_strings = make_argv(range);
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(pipe_fds[0]);
      ::close(pipe_fds[1]);
      return Status::IoError("cannot fork scatter worker: " +
                             std::string(std::strerror(errno)));
    }
    if (pid == 0) {
      // Child: frames go to stdout, diagnostics stay on stderr.
      ::close(pipe_fds[0]);
      ::dup2(pipe_fds[1], STDOUT_FILENO);
      ::close(pipe_fds[1]);
      std::vector<char*> argv;
      argv.reserve(argv_strings.size() + 1);
      for (const std::string& arg : argv_strings) {
        argv.push_back(const_cast<char*>(arg.c_str()));
      }
      argv.push_back(nullptr);
      ::execvp(argv[0], argv.data());
      std::fprintf(stderr, "exec '%s' failed: %s\n", argv[0],
                   std::strerror(errno));
      ::_exit(127);
    }
    ::close(pipe_fds[1]);
    Worker worker;
    worker.pid = pid;
    worker.fd = pipe_fds[0];
    worker.range = range;
    workers.push_back(worker);
  }

  // Gather: drain every pipe until EOF. Workers stream concurrently;
  // buffers are parsed afterwards in worker order, so gather timing never
  // affects the result.
  size_t open_fds = workers.size();
  std::vector<struct pollfd> fds(workers.size());
  while (open_fds > 0) {
    for (size_t w = 0; w < workers.size(); ++w) {
      fds[w].fd = workers[w].fd;
      fds[w].events = POLLIN;
      fds[w].revents = 0;
    }
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (size_t w = 0; w < workers.size(); ++w) {
      if (workers[w].fd < 0 || fds[w].revents == 0) continue;
      uint8_t chunk[65536];
      const ssize_t n = ::read(workers[w].fd, chunk, sizeof(chunk));
      if (n > 0) {
        workers[w].buffer.insert(workers[w].buffer.end(), chunk, chunk + n);
      } else if (n == 0 || (n < 0 && errno != EINTR && errno != EAGAIN)) {
        ::close(workers[w].fd);
        workers[w].fd = -1;
        --open_fds;
      }
    }
  }
  for (Worker& worker : workers) {
    if (worker.fd >= 0) ::close(worker.fd);
    while (::waitpid(worker.pid, nullptr, 0) < 0 && errno == EINTR) {
    }
  }

  std::vector<WorkerStream> streams;
  streams.reserve(workers.size());
  for (const Worker& worker : workers) {
    WorkerStream stream =
        ParseWorkerStream(worker.buffer.data(), worker.buffer.size());
    stream.range = worker.range;
    streams.push_back(std::move(stream));
  }
  if (reports != nullptr) {
    // One slot per spawned worker, in shard order. Its totals are its
    // fragments summed in shard order — exactly what the worker itself
    // would sum, so wall_seconds is a sum here, not MergeShardOutputs'
    // max. A worker that sent no decodable kReport is marked not
    // received, so the merged report can say which shards lost
    // attribution.
    reports->clear();
    for (WorkerStream& stream : streams) {
      obs::ProcessReport& process = reports->emplace_back();
      process.shard_begin = stream.range.begin;
      process.shard_end = stream.range.end;
      for (const ShardFragment& fragment : stream.fragments) {
        process.events += fragment.output.events_processed;
        process.wall_seconds += fragment.output.wall_seconds;
        process.cpu_seconds += fragment.output.cpu_seconds;
        process.scan.Add(fragment.output.scan);
      }
      process.received = !stream.reports.empty();
      if (process.received) {
        process.capture = std::move(stream.reports.front());
      }
    }
  }
  std::vector<ShardFragment> fragments;
  HEPQ_ASSIGN_OR_RETURN(fragments, CombineWorkerStreams(streams, files));
  return MergeShardOutputs(fragments);
}

}  // namespace hepq::scatter
