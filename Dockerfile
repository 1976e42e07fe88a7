# Build and serve the C4 simulation daemon. The repository is pure Go
# with no external dependencies, so the runtime image is a static binary
# on scratch; the image's entry point is `c4 serve`.
#
#   docker build -t c4 .
#   docker run --rm -p 8080:8080 c4
#   curl -s localhost:8080/v1/sessions -d '{"seed": 1, "job": {"model": "gpt22b"}}'

FROM golang:1.24-alpine AS build
WORKDIR /src
COPY go.mod ./
COPY . .
RUN CGO_ENABLED=0 go build -trimpath -ldflags='-s -w' -o /out/c4 ./cmd/c4

# Self-test the exact binary before shipping it.
RUN /out/c4 serve -smoke

FROM scratch
COPY --from=build /out/c4 /c4
EXPOSE 8080
ENTRYPOINT ["/c4", "serve"]
CMD ["-addr", ":8080"]
