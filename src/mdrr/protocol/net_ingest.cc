#include "mdrr/protocol/net_ingest.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "mdrr/net/protocol.h"
#include "mdrr/protocol/stream_ingest.h"

namespace mdrr::protocol {
namespace {

// Sends a best-effort Abort and returns `status` (server-side fail path).
Status AbortAndReturn(net::TcpConnection& conn, Status status) {
  net::AbortMsg abort{status.ToString()};
  conn.SendFrame(net::FrameType::kAbort, net::EncodeAbort(abort), 1000);
  return status;
}

}  // namespace

StatusOr<StreamServeResult> ServeStreamIngest(
    const release::ReleaseSpec& spec, net::TcpListener& listener,
    const StreamIngestServeOptions& options) {
  MDRR_ASSIGN_OR_RETURN(net::TcpConnection conn,
                        listener.Accept(options.deadline_ms));
  MDRR_ASSIGN_OR_RETURN(net::PeerRole role,
                        net::ServerHandshake(conn, options.deadline_ms));
  if (role != net::PeerRole::kIngest) {
    return AbortAndReturn(
        conn, Status::InvalidArgument(
                  "peer connected with a non-ingest role"));
  }

  MDRR_ASSIGN_OR_RETURN(net::Frame open_frame,
                        conn.RecvFrame(options.deadline_ms));
  if (open_frame.type != net::FrameType::kStreamOpen) {
    return AbortAndReturn(
        conn, Status::InvalidArgument("expected StreamOpen after handshake"));
  }
  auto open = net::ParseStreamOpen(open_frame.payload);
  if (!open.ok()) return AbortAndReturn(conn, open.status());

  std::vector<size_t> cardinalities;
  cardinalities.reserve(open->cardinalities.size());
  for (uint64_t c : open->cardinalities) {
    cardinalities.push_back(static_cast<size_t>(c));
  }
  auto collector_or = release::StreamingCollector::Create(
      spec, cardinalities, options.collector);
  if (!collector_or.ok()) return AbortAndReturn(conn, collector_or.status());
  release::StreamingCollector& collector = *collector_or.value();
  const size_t num_shards = collector.num_shards();

  StreamServeResult result;
  // Single-connection replay: reports must arrive in contiguous sequence
  // order, so backpressure resolves inline (this thread is producer,
  // drain, and release thread at once).
  uint64_t cursor = 0;
  bool sealed = false;
  while (!sealed) {
    MDRR_ASSIGN_OR_RETURN(net::Frame frame,
                          conn.RecvFrame(options.deadline_ms));
    switch (frame.type) {
      case net::FrameType::kStreamReport: {
        auto report = net::ParseStreamReport(frame.payload);
        if (!report.ok()) return AbortAndReturn(conn, report.status());
        if (report->num_attributes != cardinalities.size()) {
          return AbortAndReturn(conn, Status::InvalidArgument(
                                          "report attribute count does not "
                                          "match the opened schema"));
        }
        if (report->first_sequence != cursor) {
          return AbortAndReturn(
              conn, Status::InvalidArgument(
                        "reports must arrive in contiguous sequence order"));
        }
        std::vector<uint32_t> codes(cardinalities.size());
        for (uint32_t k = 0; k < report->num_reports; ++k) {
          const uint64_t s = report->first_sequence + k;
          for (size_t j = 0; j < codes.size(); ++j) {
            uint32_t code = report->codes[static_cast<size_t>(k) *
                                              cardinalities.size() + j];
            if (code >= cardinalities[j]) {
              return AbortAndReturn(
                  conn, Status::InvalidArgument(
                            "report code exceeds attribute cardinality"));
            }
            codes[j] = code;
          }
          const size_t shard = static_cast<size_t>(s % num_shards);
          while (!collector.TrySubmit(shard, s, codes)) {
            // Admission frontier is behind: drain and release to advance.
            for (size_t d = 0; d < num_shards; ++d) collector.DrainShard(d);
            MDRR_ASSIGN_OR_RETURN(size_t emitted,
                                  collector.PollWindows(result.windows));
            (void)emitted;
          }
        }
        cursor += report->num_reports;
        for (size_t d = 0; d < num_shards; ++d) collector.DrainShard(d);
        MDRR_ASSIGN_OR_RETURN(size_t emitted,
                              collector.PollWindows(result.windows));
        (void)emitted;
        break;
      }
      case net::FrameType::kStreamSeal: {
        auto seal = net::ParseStreamSeal(frame.payload);
        if (!seal.ok()) return AbortAndReturn(conn, seal.status());
        if (seal->total_reports != cursor) {
          return AbortAndReturn(
              conn, Status::InvalidArgument(
                        "seal total does not match the ingested count"));
        }
        for (size_t d = 0; d < num_shards; ++d) collector.DrainShard(d);
        collector.Seal(cursor);
        MDRR_ASSIGN_OR_RETURN(size_t emitted,
                              collector.PollWindows(result.windows));
        (void)emitted;
        sealed = true;
        break;
      }
      case net::FrameType::kAbort: {
        auto abort = net::ParseAbort(frame.payload);
        return Status::Unavailable(
            "ingest client aborted: " +
            (abort.ok() ? abort->reason : std::string("(unparseable)")));
      }
      default:
        return AbortAndReturn(
            conn, Status::InvalidArgument("unexpected frame during ingest"));
    }
  }

  result.reports_ingested = cursor;
  result.epsilon_spent = collector.epsilon_spent();
  result.finished = collector.Finished();

  net::StreamResultMsg summary;
  summary.reports_ingested = result.reports_ingested;
  summary.epsilon_spent = result.epsilon_spent;
  summary.finished = result.finished ? 1 : 0;
  MDRR_RETURN_IF_ERROR(conn.SendFrame(net::FrameType::kStreamResult,
                                      net::EncodeStreamResult(summary),
                                      options.deadline_ms));
  return result;
}

StatusOr<StreamIngestClientResult> StreamReportsOverSocket(
    const release::ReleaseSpec& spec, const Dataset& dataset,
    const std::string& host, uint16_t port,
    const StreamIngestClientOptions& options) {
  if (dataset.num_rows() == 0) {
    return Status::InvalidArgument("the replay dataset has no records");
  }
  if (options.batch_size == 0) {
    return Status::InvalidArgument("batch_size must be > 0");
  }
  std::vector<size_t> cardinalities;
  cardinalities.reserve(dataset.num_attributes());
  for (size_t j = 0; j < dataset.num_attributes(); ++j) {
    cardinalities.push_back(dataset.attribute(j).cardinality());
  }

  // A local collector is the canonical way to resolve the spec's design
  // into matrices -- guaranteed identical to the server's, since both
  // run StreamingCollector::Create on the same (spec, cardinalities).
  MDRR_ASSIGN_OR_RETURN(
      std::unique_ptr<release::StreamingCollector> design,
      release::StreamingCollector::Create(spec, cardinalities, {}));
  const std::vector<RrMatrix>& matrices = design->matrices();

  MDRR_ASSIGN_OR_RETURN(
      net::TcpConnection conn,
      net::TcpConnection::Connect(host, port, options.deadline_ms));
  MDRR_RETURN_IF_ERROR(net::ClientHandshake(conn, net::PeerRole::kIngest,
                                            options.deadline_ms));

  const uint64_t total = options.total_reports > 0
                             ? options.total_reports
                             : static_cast<uint64_t>(dataset.num_rows());
  net::StreamOpenMsg open;
  open.cardinalities.assign(cardinalities.begin(), cardinalities.end());
  open.total_reports = total;
  MDRR_RETURN_IF_ERROR(conn.SendFrame(net::FrameType::kStreamOpen,
                                      net::EncodeStreamOpen(open),
                                      options.deadline_ms));

  const size_t num_attrs = dataset.num_attributes();

  for (uint64_t begin = 0; begin < total;
       begin += options.batch_size) {
    const uint32_t count = static_cast<uint32_t>(
        std::min<uint64_t>(options.batch_size, total - begin));
    net::StreamReportMsg batch;
    batch.first_sequence = begin;
    batch.num_reports = count;
    batch.num_attributes = static_cast<uint32_t>(num_attrs);
    batch.codes.resize(static_cast<size_t>(count) * num_attrs);
    // Party-side perturbation keyed off the absolute sequence number:
    // draw-for-draw what RunStreamingReplay's producers compute.
    RandomizeReports(spec.execution, matrices, dataset, begin, count,
                     batch.codes.data());
    MDRR_RETURN_IF_ERROR(conn.SendFrame(net::FrameType::kStreamReport,
                                        net::EncodeStreamReport(batch),
                                        options.deadline_ms));
  }

  net::StreamSealMsg seal;
  seal.total_reports = total;
  MDRR_RETURN_IF_ERROR(conn.SendFrame(net::FrameType::kStreamSeal,
                                      net::EncodeStreamSeal(seal),
                                      options.deadline_ms));

  MDRR_ASSIGN_OR_RETURN(net::Frame frame, conn.RecvFrame(options.deadline_ms));
  if (frame.type == net::FrameType::kAbort) {
    auto abort = net::ParseAbort(frame.payload);
    return Status::Unavailable(
        "ingest server aborted: " +
        (abort.ok() ? abort->reason : std::string("(unparseable)")));
  }
  if (frame.type != net::FrameType::kStreamResult) {
    return Status::InvalidArgument("expected StreamResult after seal");
  }
  MDRR_ASSIGN_OR_RETURN(net::StreamResultMsg summary,
                        net::ParseStreamResult(frame.payload));

  StreamIngestClientResult result;
  result.reports_sent = total;
  result.reports_ingested = summary.reports_ingested;
  result.epsilon_spent = summary.epsilon_spent;
  result.finished = summary.finished != 0;
  return result;
}

}  // namespace mdrr::protocol
