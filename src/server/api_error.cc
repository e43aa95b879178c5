#include "src/server/api_error.h"

#include <cctype>

namespace prefillonly {

int HttpStatusFor(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kFailedPrecondition:
    case StatusCode::kCancelled:
      return 409;
    case StatusCode::kResourceExhausted:
      return 429;
    case StatusCode::kUnimplemented:
      return 501;
    case StatusCode::kDeadlineExceeded:
      return 504;
    case StatusCode::kUnavailable:
      return 503;
    case StatusCode::kInternal:
      return 500;
  }
  return 500;
}

std::string_view ApiErrorTypeFor(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "none";
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
    case StatusCode::kUnimplemented:
      return "invalid_request_error";
    case StatusCode::kNotFound:
      return "not_found_error";
    case StatusCode::kFailedPrecondition:
      return "conflict_error";
    case StatusCode::kCancelled:
      return "cancelled_error";
    case StatusCode::kResourceExhausted:
      return "rate_limit_error";
    case StatusCode::kDeadlineExceeded:
      return "timeout_error";
    case StatusCode::kUnavailable:
      return "unavailable_error";
    case StatusCode::kInternal:
      return "internal_error";
  }
  return "internal_error";
}

std::string ApiErrorCodeFor(StatusCode code) {
  std::string name(StatusCodeName(code));
  for (char& c : name) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return name;
}

Json ApiErrorJson(StatusCode code, const std::string& message) {
  Json::Object error;
  error.emplace("code", Json(ApiErrorCodeFor(code)));
  error.emplace("type", Json(std::string(ApiErrorTypeFor(code))));
  error.emplace("message", Json(message));
  Json::Object wrapper;
  wrapper.emplace("error", Json(std::move(error)));
  return Json(std::move(wrapper));
}

HttpResponse ApiErrorResponse(StatusCode code, const std::string& message) {
  HttpResponse response;
  response.status = HttpStatusFor(code);
  response.body = ApiErrorJson(code, message).Serialize();
  if (code == StatusCode::kResourceExhausted || code == StatusCode::kUnavailable) {
    // The engine sheds load transiently (queue admission, activation
    // budget), and a cluster with every replica tripped/draining recovers
    // on the breaker-probe timescale; a one-second backoff is the honest
    // hint for both.
    response.headers.emplace("Retry-After", "1");
  }
  return response;
}

HttpResponse ApiErrorResponse(const Status& status) {
  return ApiErrorResponse(status.code(), status.message());
}

StatusCode StatusCodeForApiErrorCode(std::string_view code) {
  // Every code this table can answer is one ApiErrorCodeFor can produce, so
  // the round trip StatusCode -> code -> StatusCode is the identity
  // (RemoteParityTest in tests/http_client_test.cc checks that error codes
  // cross the wire unchanged).
  static constexpr std::pair<std::string_view, StatusCode> kCodes[] = {
      {"ok", StatusCode::kOk},
      {"invalid_argument", StatusCode::kInvalidArgument},
      {"not_found", StatusCode::kNotFound},
      {"resource_exhausted", StatusCode::kResourceExhausted},
      {"failed_precondition", StatusCode::kFailedPrecondition},
      {"out_of_range", StatusCode::kOutOfRange},
      {"unimplemented", StatusCode::kUnimplemented},
      {"internal", StatusCode::kInternal},
      {"cancelled", StatusCode::kCancelled},
      {"deadline_exceeded", StatusCode::kDeadlineExceeded},
      {"unavailable", StatusCode::kUnavailable},
  };
  for (const auto& [name, status] : kCodes) {
    if (code == name) {
      return status;
    }
  }
  return StatusCode::kInternal;
}

StatusCode StatusCodeForHttpStatus(int http_status) {
  switch (http_status) {
    case 400:
      return StatusCode::kInvalidArgument;
    case 404:
      return StatusCode::kNotFound;
    case 409:
      return StatusCode::kFailedPrecondition;
    case 429:
      return StatusCode::kResourceExhausted;
    case 501:
      return StatusCode::kUnimplemented;
    case 503:
      return StatusCode::kUnavailable;
    case 504:
      return StatusCode::kDeadlineExceeded;
    default:
      return StatusCode::kInternal;
  }
}

}  // namespace prefillonly
