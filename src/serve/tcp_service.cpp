#include "serve/tcp_service.hpp"

#include <utility>

#include "util/error.hpp"

namespace qgnn::serve {

NdjsonTcpService::NdjsonTcpService(ServeHandle& handle,
                                   TcpServiceConfig config)
    : handle_(handle), config_(std::move(config)), slo_(config_.slo) {
  server_ = std::make_unique<net::TcpServer>(
      config_.net, [this](std::uint64_t conn_id, std::string&& line) {
        on_line(conn_id, std::move(line));
      });
  server_->set_oversized_handler([max = config_.net.max_line_bytes](
                                     std::size_t dropped) {
    return format_error(JsonValue{},
                        "request line exceeds " + std::to_string(max) +
                            " bytes (dropped " + std::to_string(dropped) +
                            "); line skipped");
  });
  // Every queue-wait sample the handle records (one per request, from
  // admission to batch start) also feeds the shedding controller's window.
  handle_.set_queue_wait_tap(
      [this](double us) { slo_.record_queue_wait(us); });
}

NdjsonTcpService::~NdjsonTcpService() {
  stop();
  handle_.set_queue_wait_tap(nullptr);
}

void NdjsonTcpService::start() { server_->start(); }

bool NdjsonTcpService::graceful_shutdown(
    std::chrono::milliseconds drain_timeout) {
  return server_->graceful_shutdown(drain_timeout);
}

void NdjsonTcpService::stop() { server_->stop(); }

std::string NdjsonTcpService::stats_response(const JsonValue& id) const {
  // Reuse the canonical serializer, then splice the TCP-tier sub-objects
  // into the stats body. Cold path: one extra parse round-trip.
  JsonValue doc = parse_json(format_stats_response(id, handle_.stats()));
  JsonValue& stats = doc.object["stats"];

  const net::TcpServerStats net = server_->stats();
  JsonValue net_obj;
  net_obj.kind = JsonValue::Kind::kObject;
  net_obj.object["connections_accepted"] =
      json_number(static_cast<double>(net.connections_accepted));
  net_obj.object["connections_dropped"] =
      json_number(static_cast<double>(net.connections_dropped));
  net_obj.object["accept_deferrals"] =
      json_number(static_cast<double>(net.accept_deferrals));
  net_obj.object["lines_in"] =
      json_number(static_cast<double>(net.lines_in));
  net_obj.object["lines_out"] =
      json_number(static_cast<double>(net.lines_out));
  net_obj.object["oversized_lines"] =
      json_number(static_cast<double>(net.oversized_lines));
  net_obj.object["open_connections"] =
      json_number(static_cast<double>(net.open_connections));
  stats.object["net"] = std::move(net_obj);

  const SloController::Counters slo = slo_.counters();
  JsonValue slo_obj;
  slo_obj.kind = JsonValue::Kind::kObject;
  slo_obj.object["admitted"] =
      json_number(static_cast<double>(slo.admitted));
  slo_obj.object["shed"] = json_number(static_cast<double>(slo.shed));
  slo_obj.object["degraded"] =
      json_number(static_cast<double>(slo.degraded));
  slo_obj.object["windowed_p99_us"] = json_number(slo.windowed_p99_us);
  slo_obj.object["shedding"] = json_bool(slo.shedding);
  stats.object["slo"] = std::move(slo_obj);

  return to_json(doc);
}

void NdjsonTcpService::on_line(std::uint64_t conn_id, std::string&& line) {
  JsonValue id;
  try {
    const JsonValue doc = parse_json(line);
    if (const JsonValue* found = doc.find("id")) id = *found;

    if (const JsonValue* cmd = doc.find("cmd")) {
      if (!cmd->is_string()) throw InvalidArgument("'cmd' must be a string");
      if (cmd->string == "stats") {
        server_->post(conn_id, stats_response(id));
      } else if (cmd->string == "ping") {
        JsonValue resp;
        resp.kind = JsonValue::Kind::kObject;
        resp.object["id"] = id;
        resp.object["ok"] = json_bool(true);
        resp.object["pong"] = json_bool(true);
        server_->post(conn_id, to_json(resp));
      } else {
        throw InvalidArgument("unknown cmd '" + cmd->string + "'");
      }
      return;
    }

    Request req = parse_request_doc(doc);
    const JsonValue req_id = req.id;
    const std::string model =
        req.model.empty() ? handle_.config().default_model : req.model;

    // Cache hits are answered inline on the loop thread: no submit-queue
    // handoff (two thread wakeups saved per request) and no admission
    // check — a hit never touches the contended resource the SLO
    // protects, so shedding it would only throw away free work. A miss
    // keeps the probe's key, so the graph is hashed once per request.
    CacheProbe probe = handle_.try_cache_predict(model, req.graph);
    if (probe.hit) {
      slo_.note_admitted();
      server_->post(conn_id, format_response(req_id, *probe.hit));
      return;
    }

    // Miss: SLO admission first, queue second.
    if (slo_.should_shed()) {
      if (slo_.config().policy == ShedPolicy::kDegrade) {
        slo_.note_degraded();
        server_->post(conn_id, format_degraded_response(req_id, req.graph));
      } else {
        slo_.note_shed();
        server_->post(conn_id, format_shed_response(req_id));
      }
      return;
    }

    const bool queued = handle_.try_submit(
        model, std::move(req.graph),
        [this, conn_id, req_id](Prediction p, std::exception_ptr error) {
          if (error) {
            try {
              std::rethrow_exception(error);
            } catch (const std::exception& e) {
              server_->post(conn_id, format_error(req_id, e.what()));
            } catch (...) {
              server_->post(conn_id,
                            format_error(req_id, "prediction failed"));
            }
            return;
          }
          server_->post(conn_id, format_response(req_id, p));
        },
        probe.key);
    if (!queued) {
      // Submit queue full: the hard backstop sheds even when the SLO
      // controller has not (yet) tripped.
      slo_.note_shed();
      server_->post(conn_id, format_shed_response(req_id));
      return;
    }
    slo_.note_admitted();
  } catch (const std::exception& e) {
    server_->post(conn_id, format_error(id, e.what()));
  }
}

}  // namespace qgnn::serve
